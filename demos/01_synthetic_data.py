"""Generate a synthetic signature corpus and look at what is inside.

The generator gives every user a smooth latent pen curve; genuine
signatures add small jitter to it, skilled forgeries redraw it with a
drifted shape.  Everything is derived from one seed, so the corpus is
reproducible down to the last bit.
"""

import tempfile
from pathlib import Path

import numpy as np

from sigverify import format_canonical, generate_synthetic_corpus, load_corpus, save_corpus


def main():
    corpus = generate_synthetic_corpus(seed=42, n_users=5, n_genuine=8, n_forgery=4)
    print(f"corpus source tag: {corpus.source}")
    print(f"users: {', '.join(corpus.user_ids())}")
    print()

    print("per-user inventory")
    print(f"{'user':10} {'genuine':>8} {'forgeries':>10} {'samples/sig':>12} {'duration':>9}")
    for uid in corpus.user_ids():
        sigs = corpus.users[uid]
        lengths = [len(t) for t in sigs.genuine]
        durations = [t.t[-1] - t.t[0] for t in sigs.genuine]
        print(f"{uid:10} {len(sigs.genuine):>8} {len(sigs.skilled_forgeries):>10} "
              f"{np.mean(lengths):>12.1f} {np.mean(durations):>8.0f}ms")
    print()

    # A trajectory is five parallel arrays; the first few samples of one:
    traj = corpus.users[corpus.user_ids()[0]].genuine[0]
    print(f"first genuine signature of {traj.user_id}: {len(traj)} samples")
    print(f"{'x':>10} {'y':>10} {'t':>8} {'pressure':>9} {'pen_down':>9}")
    for x, y, t, p, d in zip(traj.x[:6], traj.y[:6], traj.t[:6], traj.pressure[:6],
                             traj.pen_down[:6]):
        print(f"{x:>10.3f} {y:>10.3f} {t:>8.1f} {p:>9.4f} {str(d):>9}")
    pen_up = int((~traj.pen_down).sum())
    print(f"... plus {len(traj) - 6} more ({pen_up} mid-air samples)")
    print()

    # The canonical text format round-trips every float exactly.
    text = format_canonical(traj)
    print("canonical file format, first four lines:")
    for line in text.splitlines()[:4]:
        print(f"  {line}")
    print()

    # Corpora live on disk as <root>/<user>/{genuine,forgery}/*.txt.
    # Reloaded samples match the originals bit for bit (only the source
    # path metadata differs).
    root = Path(tempfile.mkdtemp(prefix="sigverify-demo-"))
    save_corpus(corpus, root)
    reloaded = load_corpus(root)
    same = all(
        format_canonical(a) == format_canonical(b)
        for uid in corpus.user_ids()
        for a, b in zip(corpus.users[uid].genuine, reloaded.users[uid].genuine)
    )
    print(f"saved to {root} and reloaded: samples bit-identical = {same}")


if __name__ == "__main__":
    main()
