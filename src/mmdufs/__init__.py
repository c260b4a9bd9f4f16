"""Multi-modal differentiable unsupervised feature selection.

Selects features associated with latent structure that is shared between two
registered data modalities, or specific to one of them, by optimizing
stochastic feature gates against Laplacian-based graph operator scores.
Import names from their submodules: ``from mmdufs.<module> import ...``.
"""

from . import bench, datagen, gates, trainer

__version__ = "0.1.0"

__all__ = ["bench", "datagen", "gates", "trainer"]
