import hashlib
from pathlib import Path

import numpy as np
import pytest

from sigverify import (AeConfig, PatchConfig, PreprocessConfig, container,
                       generate_synthetic_corpus, train_descriptor)

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def record_criterion(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def skip_criterion(number, name, reason):
    """Record a conditional criterion whose precondition is absent."""
    line = f"criterion {number} ({name}): SKIP  [{reason}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    pytest.skip(reason)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def craft(source, target, edit):
    """The model file ``source`` with ``edit(meta, arrays)`` applied, written
    under a valid digest to ``target``, which is returned.

    A crafted file is always a new file: a file re-written in place is
    truncated first, and a truncation can cost a file system tens of
    milliseconds where a new file costs hundredths of one."""
    if Path(target).exists():
        raise FileExistsError(f"{target}: a crafted model file is always a new file")
    meta, arrays = container.read_container(source)
    edit(meta, arrays)
    container.write_container(target, meta, arrays)
    return target


def digested(body: bytes) -> bytes:
    """Hand-built container bytes with their SHA-256 digest appended."""
    return body + hashlib.sha256(body).digest()


@pytest.fixture(scope="session")
def tiny_corpus():
    return generate_synthetic_corpus(seed=11, n_users=4, n_genuine=6, n_forgery=3)


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    """Small but real descriptor model shared by the slower tests."""
    return train_descriptor(
        tiny_corpus.all_trajectories(),
        patch_cfg=PatchConfig(train_count=2000),
        ae_cfg=AeConfig(hidden=8, max_iter=40, seed=0),
        seed=5)


@pytest.fixture(scope="session")
def tiny_images(tiny_corpus):
    cfg = PreprocessConfig()
    from sigverify import preprocess
    return [preprocess(t, cfg) for t in tiny_corpus.all_trajectories()[:6]]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
