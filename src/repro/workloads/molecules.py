"""Synthetic protein/ligand poses for the MedusaDock workload.

MedusaDock scores candidate ligand *poses* against a protein with a
force-field energy and keeps the lowest-energy poses.  The substitution
here (DESIGN.md): seeded random atom clouds, a Lennard-Jones-style
pairwise interaction energy, and one planted low-energy pose per
"protein" so top-k selection accuracy is well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DockingInput:
    name: str
    protein: np.ndarray          # (atoms, 3) receptor atom coordinates
    poses: np.ndarray            # (poses, ligand_atoms, 3)
    seed: int

    @property
    def num_poses(self) -> int:
        return len(self.poses)


def synthetic_poses(num_poses: int = 64, protein_atoms: int = 48,
                    ligand_atoms: int = 12, seed: int = 0,
                    placement: str = "early",
                    early_fraction: float = 0.4,
                    name: str = "protein") -> DockingInput:
    """One synthetic docking problem.

    A quarter of the poses are jittered copies of a planted "good" pose
    near the receptor surface.  ``placement`` controls where the good
    poses land in the scoring order:

    * ``"early"`` — inside the first ``early_fraction`` of the scan, so
      the running minimum energy converges early.  This is the paper's
      "the lowest pose energy will be converged at an early stage for
      many proteins", the structure that makes convergence valves win
      (Figure 8);
    * ``"uniform"`` — anywhere, modelling the proteins for which eager
      selection is risky (the ~51% that fail the paper's floor check).
    """
    if placement not in ("early", "uniform"):
        raise ValueError(f"unknown placement {placement!r}")
    rng = np.random.default_rng(seed)
    protein = rng.uniform(-5.0, 5.0, size=(protein_atoms, 3))
    # The planted pose docks onto the receptor's +x face: each ligand
    # atom sits near the Lennard-Jones optimum distance (r ~ 1) outward
    # of one surface atom, clear of the rest of the cloud, giving a
    # deeply negative energy random poses essentially never reach.
    surface = protein[np.argsort(protein[:, 0])[-ligand_atoms:]]
    offsets = np.column_stack([
        np.full(ligand_atoms, 1.05),
        rng.normal(0.0, 0.05, size=ligand_atoms),
        rng.normal(0.0, 0.05, size=ligand_atoms)])
    good_pose = surface + offsets
    # Nudge any ligand atom that landed too close to a *different*
    # receptor atom outward until it is collision-free; otherwise dense
    # receptor seeds would poison the planted minimum with repulsion.
    for atom in range(ligand_atoms):
        for _ in range(64):
            distances = np.linalg.norm(protein - good_pose[atom], axis=1)
            if distances.min() >= 0.95:
                break
            good_pose[atom, 0] += 0.25
    poses = np.empty((num_poses, ligand_atoms, 3))
    num_good = max(1, num_poses // 4)
    for index in range(num_poses):
        if index < num_good:
            poses[index] = good_pose + rng.normal(
                0.0, 0.02 * (index + 1), size=(ligand_atoms, 3))
        else:
            poses[index] = rng.uniform(-8.0, 8.0, size=(ligand_atoms, 3))
    if placement == "early":
        early_cut = max(num_good, int(num_poses * early_fraction))
        early_slots = rng.permutation(early_cut)[:num_good]
        order = np.empty(num_poses, dtype=np.int64)
        order[:] = -1
        order[early_slots] = np.arange(num_good)
        rest = rng.permutation(np.arange(num_good, num_poses))
        order[order < 0] = rest
    else:
        order = rng.permutation(num_poses)
    return DockingInput(name, protein, poses[order], seed)


def pose_energies(protein: np.ndarray, poses: np.ndarray) -> np.ndarray:
    """Lennard-Jones-flavoured interaction energy of each pose in
    ``poses`` (shape ``(poses, ligand_atoms, 3)``; lower is better).

    Each pose's terms are summed over one contiguous row, so a pose
    scores the same bytes alone or in any batch.  ``r2`` adds the three
    squared coordinate deltas left to right, the order of numpy's
    length-3 add-reduce, into one ``(poses, receptor, ligand)`` array
    that the rest of the kernel updates in place.
    """
    shape = (len(poses), len(protein), poses.shape[1])
    r2 = np.empty(shape)
    delta = np.empty(shape)
    for axis in range(3):
        np.subtract(protein[None, :, None, axis], poses[:, None, :, axis],
                    out=delta)
        if axis == 0:
            np.square(delta, out=r2)
        else:
            r2 += np.square(delta, out=delta)
    np.maximum(r2, 0.25, out=r2)
    inv6 = np.divide(1.0, np.power(r2, 3, out=r2), out=r2)
    energy = np.square(inv6, out=delta)
    inv6 *= 2.0
    energy -= inv6
    return energy.reshape(len(poses), -1).sum(axis=1)


def pose_energy(protein: np.ndarray, pose: np.ndarray) -> float:
    """The energy of one pose."""
    return float(pose_energies(protein, pose[None])[0])


def energy_reference(docking: DockingInput) -> np.ndarray:
    """Precise energies of every pose."""
    return pose_energies(docking.protein, docking.poses)
