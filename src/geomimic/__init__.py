"""Learning geometric feature-association tasks from a demonstration.

The package turns a single demonstrated image sequence into an executable
task description: which geometric constraint between which features the
demonstrator was driving to zero. A permutation-invariant message-passing
scorer ranks candidate feature associations by how control-like their
error trajectories look, and the selected constraint can then be fed to an
image-based or uncalibrated visual-servoing loop.
"""

from .geometry import GeometryError, KernelKind

__all__ = ["GeometryError", "KernelKind"]
