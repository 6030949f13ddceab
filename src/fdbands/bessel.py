"""Modified Bessel function of the second kind, real order.

A thin wrapper around `scipy.special.kv` that keeps the package's domain
(0 < nu <= 50, x > 0 and finite); `fdbands.verify` checks it against an
independent quadrature oracle to 1e-10 relative.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_NU_MAX = 50.0


def bessel_k(nu, x):
    """K_nu(x) for real order 0 < nu <= 50 and x > 0.

    Broadcasts over array arguments; two scalars give a Python float.
    Any element outside the domain raises DomainError.
    """
    nu_arr = np.asarray(nu, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    bad_x = ~((x_arr > 0.0) & np.isfinite(x_arr))
    if bad_x.any():
        raise DomainError(f"bessel_k requires x > 0, got {x_arr[bad_x].flat[0].item()!r}")
    bad_nu = ~((nu_arr > 0.0) & (nu_arr <= _NU_MAX))
    if bad_nu.any():
        raise DomainError(
            f"bessel_k requires 0 < nu <= {_NU_MAX}, got {nu_arr[bad_nu].flat[0].item()!r}"
        )
    from scipy.special import kv  # deferred: keeps scipy out of `import fdbands`

    out = kv(nu_arr, x_arr)
    return float(out) if out.ndim == 0 else out
