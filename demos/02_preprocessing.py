"""Walk one signature through the preprocessing pipeline, stage by stage.

A raw trajectory becomes a two-channel raster image in five steps:
spline smoothing, orientation estimation, rotation, extent
normalization, and rasterization.  The end result is invariant to where
on the tablet the signature was written and how large it was drawn.
"""

import numpy as np

from sigverify import (PreprocessConfig, Trajectory, generate_synthetic_corpus,
                       normalize_extent, orientation_angle, preprocess,
                       rasterize, rotate, smooth)


def ascii_render(image, cols=64):
    """Coarse terminal rendering of the pressure channel."""
    side = image.pressure.shape[0]
    rows = cols // 2  # terminal cells are roughly twice as tall as wide
    shades = " .:+*#"
    lines = []
    for r in range(rows):
        cells = []
        for c in range(cols):
            r0, r1 = r * side // rows, max((r + 1) * side // rows, r * side // rows + 1)
            c0, c1 = c * side // cols, max((c + 1) * side // cols, c * side // cols + 1)
            v = image.pressure[r0:r1, c0:c1].max()
            cells.append(shades[min(int(v * (len(shades) - 1) + 0.999), len(shades) - 1)])
        lines.append("".join(cells))
    return "\n".join(lines)


def main():
    cfg = PreprocessConfig()
    corpus = generate_synthetic_corpus(seed=7, n_users=1, n_genuine=1, n_forgery=0)
    traj = corpus.users["user000"].genuine[0]

    print(f"raw trajectory: {len(traj)} samples, "
          f"x span {np.ptp(traj.x):.1f}, y span {np.ptp(traj.y):.1f}")

    # The stages work on the five sample columns of the trajectory.
    x, y, t, pressure, pen_down = smooth(traj.x, traj.y, traj.t, traj.pressure,
                                         traj.pen_down, cfg)
    print(f"after spline smoothing: {len(t)} samples "
          f"({cfg.spline_points_per_segment - 1} inserted per pen-down segment)")

    angle = orientation_angle(x, y)
    print(f"orientation of the principal axis: {np.degrees(angle):.2f} degrees")

    x, y = rotate(x, y, angle)
    print(f"after rotation the residual orientation is "
          f"{np.degrees(orientation_angle(x, y)):.2e} degrees")

    x, y = normalize_extent(x, y)
    print(f"after extent normalization: x in [{x.min():.0f}, {x.max():.0f}], "
          f"y in [{y.min():.0f}, {y.max():.0f}]")

    image = rasterize(x, y, t, pressure, pen_down, cfg)
    inked = int((image.pressure > 0).sum())
    print(f"raster: {image.pressure.shape[0]}x{image.pressure.shape[1]} pixels, "
          f"{inked} inked, peak pressure {image.pressure.max():.2f}")
    print()
    print(ascii_render(image))
    print()

    # The one-call pipeline is preprocess(); position on the tablet does
    # not matter, the moved signature rasters to the exact same image.
    moved = Trajectory(traj.x + 512.0, traj.y + 2048.0, traj.t,
                       traj.pressure, traj.pen_down, user_id=traj.user_id)
    a, b = preprocess(traj, cfg), preprocess(moved, cfg)
    print(f"translation by (512, 2048) changes the image: "
          f"{not np.array_equal(a.pressure, b.pressure)}")

    # Scaling changes at most a few boundary pixels through rounding.
    scaled = Trajectory(traj.x * 3.0, traj.y * 3.0, traj.t,
                        traj.pressure, traj.pen_down, user_id=traj.user_id)
    c = preprocess(scaled, cfg)
    frac = (a.pressure != c.pressure).mean()
    print(f"scaling by 3 changes {frac:.2%} of pixels")


if __name__ == "__main__":
    main()
