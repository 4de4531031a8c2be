"""Print by how much the tracks saved in two directories differ.

    python3 tools/compare_tracks.py DIR_A DIR_B

Run from any directory; the library is imported from the checkout's `src/`.
Every `track.json` under DIR_A, at any depth (as `tools/output_digests.py
DIR` leaves them), is paired with the file at the same path under DIR_B.
Both are read with this checkout's `adjustment.load_track`, so both must be
track files of the version it reads (2: the poses as one base64 float64
block). Each pair prints one line: the largest rotation difference over its
epochs, the angle of R_a^T R_b in rad, and the largest translation
difference, the length of t_a - t_b in mm. Bit-identical tracks print
zeros.

Like `diff`, exits 0 when every pair is identical and 1 otherwise,
including when the two directories hold different sets of tracks.
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mousetrack3d import adjustment, geometry


def track_files(root):
    """Paths of the track.json files under root, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(d, "track.json"), root)
                  for d, _, files in os.walk(root) if "track.json" in files)


def differences(a, b):
    """(largest rotation angle in rad, largest translation in mm) between
    two (T, 6) pose arrays."""
    Ra = geometry.rodrigues_to_matrix(a[:, :3])
    Rb = geometry.rodrigues_to_matrix(b[:, :3])
    rel = geometry.matrix_to_rodrigues(np.swapaxes(Ra, -1, -2) @ Rb)
    return (float(np.linalg.norm(rel, axis=1).max()),
            float(np.linalg.norm(a[:, 3:] - b[:, 3:], axis=1).max()))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    args = p.parse_args(argv)
    files = track_files(args.dir_a)
    if not files or files != track_files(args.dir_b):
        print(f"{args.dir_a} and {args.dir_b} hold different sets of tracks")
        return 1
    same = True
    for rel in files:
        a, b = (adjustment.load_track(os.path.join(root, rel)).poses
                for root in (args.dir_a, args.dir_b))
        if a.shape != b.shape:
            print(f"{rel}: {len(a)} against {len(b)} epochs")
            same = False
            continue
        rad, mm = differences(a, b)
        print(f"{rel}: rotation {rad:.3g} rad, translation {mm:.3g} mm")
        same &= rad == 0.0 and mm == 0.0
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
