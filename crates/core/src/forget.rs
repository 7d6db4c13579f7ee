//! The forget probability φ(α) of the move-and-forget process.
//!
//! Chaintreau, Fraigniaud and Lebhar (ICALP 2008, paper's reference \[4\])
//! let every long-range token perform a random walk and *forget* (reset to
//! its origin) with an age-dependent probability. Section III.D of the
//! IPPS 2012 paper adopts it verbatim:
//!
//! ```text
//! φ(α) = 0                                           if α ∈ {0, 1, 2}
//! φ(α) = 1 − ((α−1)/α) · (ln(α−1)/ln α)^(1+ε)        if α ≥ 3
//! ```
//!
//! where ε > 0 is a fixed, arbitrarily small protocol parameter. The
//! resulting age distribution makes the token's position converge to the
//! k-harmonic distribution, independent of the lattice dimension k.

// A malformed peer message must never be able to panic a node.
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Computes the forget probability `φ(α)` for a link of age `alpha` with
/// protocol parameter `epsilon`.
///
/// Always returns a value in `[0, 1]`.
///
/// # Panics
/// Panics if `epsilon` is not finite and positive.
pub fn phi(alpha: u64, epsilon: f64) -> f64 {
    assert!(
        epsilon.is_finite() && epsilon > 0.0,
        "epsilon must be a positive finite number, got {epsilon}"
    );
    if alpha <= 2 {
        return 0.0;
    }
    let a = alpha as f64;
    let ratio = (a - 1.0) / a;
    let log_ratio = ((a - 1.0).ln() / a.ln()).powf(1.0 + epsilon);
    (1.0 - ratio * log_ratio).clamp(0.0, 1.0)
}

/// The survival probability of a token to age `alpha`, i.e. the probability
/// that a fresh link is *not* forgotten in any of the first `alpha`
/// move-and-forget steps:  `∏_{i=1..alpha} (1 − φ(i))`.
///
/// Used by the harness to check the claimed O(n) w.h.p. bound on the
/// maximal link age (proof of Theorem 4.22).
pub fn survival(alpha: u64, epsilon: f64) -> f64 {
    let mut s = 1.0f64;
    for i in 1..=alpha {
        s *= 1.0 - phi(i, epsilon);
        if s == 0.0 {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.1;

    #[test]
    fn young_links_never_forgotten() {
        assert_eq!(phi(0, EPS), 0.0);
        assert_eq!(phi(1, EPS), 0.0);
        assert_eq!(phi(2, EPS), 0.0);
    }

    #[test]
    fn phi_is_a_probability() {
        for alpha in 3..100_000 {
            let p = phi(alpha, EPS);
            assert!((0.0..=1.0).contains(&p), "phi({alpha}) = {p} out of range");
        }
    }

    #[test]
    fn phi_positive_from_three() {
        assert!(phi(3, EPS) > 0.0);
        assert!(phi(4, EPS) > 0.0);
    }

    #[test]
    fn phi_decreases_for_large_alpha() {
        // φ(α) ≈ (1 + (1+ε)/ln α)/α for large α: strictly decreasing tail.
        let mut prev = phi(10, EPS);
        for alpha in 11..10_000u64 {
            let cur = phi(alpha, EPS);
            assert!(
                cur <= prev + 1e-15,
                "phi not decreasing at {alpha}: {cur} > {prev}"
            );
            prev = cur;
        }
    }

    #[test]
    fn phi_asymptotics_match_one_over_alpha() {
        // For large α, α·φ(α) → 1 (the (1+ε)/ln α correction vanishes).
        let a = 1_000_000u64;
        let scaled = a as f64 * phi(a, EPS);
        assert!(
            (scaled - 1.0).abs() < 0.15,
            "α·φ(α) = {scaled}, expected ≈ 1"
        );
    }

    #[test]
    fn larger_epsilon_forgets_faster() {
        for alpha in [3u64, 10, 100, 1000] {
            assert!(
                phi(alpha, 0.5) >= phi(alpha, 0.05),
                "phi not monotone in epsilon at alpha={alpha}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be")]
    fn rejects_zero_epsilon() {
        let _ = phi(10, 0.0);
    }

    #[test]
    fn survival_monotone_decreasing() {
        let mut prev = 1.0;
        for a in 0..1000 {
            let s = survival(a, EPS);
            assert!(s <= prev + 1e-15);
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
    }

    #[test]
    fn survival_has_heavy_tail() {
        // The tail is P(A > α) ≈ c / (α · ln^{1+ε} α) — polynomially, not
        // geometrically, decaying. At α = 1000 that is ≈ 4e-4; a geometric
        // tail with the same φ(10) would be < 1e-40.
        let s = survival(1000, EPS);
        assert!(s > 5e-5, "tail too light: {s}");
        assert!(s < 5e-3, "tail too heavy: {s}");
        // The asymptotic form: α · ln^{1+ε}(α) · P(A > α) is ~constant.
        let scaled = |a: u64| a as f64 * (a as f64).ln().powf(1.0 + EPS) * survival(a, EPS);
        let (s1, s2) = (scaled(500), scaled(5000));
        assert!(
            (s1 / s2 - 1.0).abs() < 0.25,
            "tail does not follow 1/(α ln^(1+ε) α): {s1} vs {s2}"
        );
    }
}
