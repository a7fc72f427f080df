"""Banding artifact detection and no-reference quality scoring."""

from .classifier import (
    BaselineConfig,
    DualNetParams,
    PatchSample,
    TrainConfig,
    load_params,
    save_params,
    train,
)
from .freq import LowFreqMap, PwsConfig, pws_energy, pws_lfm, sobel_hfm
from .imgcore import (
    Label,
    PatchGrid,
    PlanarImage,
    load_image,
    rgb_to_ycbcr420,
    save_image,
    tile,
    to_luma,
    ycbcr420_to_rgb,
)
from .pipeline import ImageResult, RunConfig, score_image
from .scoring import BandingMap, QualityScore, banding_map, map_to_image, pool_score
from .sfmask import mask_weight, spatial_frequency
from .subjective import (
    OutlierConfig,
    RatingSet,
    grubbs_threshold,
    remove_outliers,
)

__version__ = "0.1.0"
