"""Scalar reference implementations that the array code in ``leakaudit`` is tested against."""

import numpy as np

from leakaudit.attacks import RmiaParams


def rmia_score(
    target_conf: float,
    shadow_confs: np.ndarray,
    z_target_confs: np.ndarray,
    z_shadow_confs: np.ndarray,
    gamma: float = RmiaParams.gamma,
) -> float:
    """RMIA for one candidate: the fraction of reference points z with ratio_z <= ratio_m / gamma.

    Pr(m) and every Pr(z) average all shadows, as Zarifzadeh, Liu and
    Shokri (ICML 2024) define them.
    """
    if z_target_confs.size == 0:
        raise ValueError("Z reference set must be non-empty")
    ratio_m = target_conf / np.mean(shadow_confs)
    ratio_z = z_target_confs / z_shadow_confs.mean(axis=1)
    return float(np.mean(ratio_z <= ratio_m / gamma))
