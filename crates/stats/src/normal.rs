//! Standard normal distribution functions: `Φ` (CDF) and `Φ⁻¹` (quantile).
//!
//! `Φ⁻¹` is the *rankit* building block of the Rank-based Inverse Normal
//! (RIN) correlation (paper Section 5.3, estimator 3). Implemented from
//! scratch: `Φ` via a Chebyshev-fitted complementary error function and
//! `Φ⁻¹` via Acklam's rational approximation refined with one Halley step;
//! both are accurate to ~1e-7 absolute error, ample for rankit scores and
//! confidence-interval critical values.

/// Complementary error function, |fractional error| < 1.2e-7 everywhere
/// (Numerical Recipes' Chebyshev fit), sign-symmetric.
fn erfc_cheb(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc_cheb(-x / std::f64::consts::SQRT_2)
}

/// Inverse standard normal CDF `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Returns `-∞`/`+∞` for `p = 0`/`p = 1` and NaN outside `[0, 1]`.
/// Acklam's rational approximation (relative error < 1.15e-9) followed by
/// one Halley refinement step against [`normal_cdf`]; overall accuracy is
/// limited by the ~1e-7 absolute error of the Chebyshev-fitted CDF, which
/// is far below what any estimator in this workspace can resolve.
#[must_use]
pub(crate) fn inverse_normal_cdf(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        // Lower tail.
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail (by symmetry).
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    };

    // One Halley refinement step sharpens the tail accuracy.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((normal_cdf(1.0) - 0.841_344_746_068_543).abs() < 1e-7);
        assert!((normal_cdf(-1.0) - 0.158_655_253_931_457).abs() < 1e-7);
        assert!((normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-7);
        assert!((normal_cdf(3.0) - 0.998_650_101_968_37).abs() < 1e-7);
    }

    #[test]
    fn cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.5, 5.0] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-7, "x={x}");
        }
    }

    #[test]
    fn inverse_known_points() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.025) + 1.959_963_984_540_054).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.841_344_746_068_543) - 1.0).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.95) - 1.644_853_626_951_472).abs() < 1e-6);
    }

    #[test]
    fn inverse_is_antisymmetric() {
        for &p in &[0.01, 0.1, 0.25, 0.4] {
            let a = inverse_normal_cdf(p);
            let b = inverse_normal_cdf(1.0 - p);
            assert!((a + b).abs() < 1e-9, "p={p}: {a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_cdf_inverse() {
        for i in 1..100 {
            let p = f64::from(i) / 100.0;
            let x = inverse_normal_cdf(p);
            assert!((normal_cdf(x) - p).abs() < 1e-8, "p={p}");
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(inverse_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_normal_cdf(1.0), f64::INFINITY);
        assert!(inverse_normal_cdf(-0.1).is_nan());
        assert!(inverse_normal_cdf(1.1).is_nan());
        assert!(inverse_normal_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn deep_tails_are_monotone_and_finite() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..=50 {
            let p = f64::from(i) * 1e-6;
            let x = inverse_normal_cdf(p);
            assert!(x.is_finite());
            assert!(x > prev, "non-monotone at p={p}");
            prev = x;
        }
    }
}
