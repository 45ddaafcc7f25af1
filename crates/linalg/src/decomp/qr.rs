use crate::{LinalgError, Matrix};

/// Householder QR factorization `A = Q R` of an `m x n` matrix with `m >= n`.
///
/// `Q` is represented implicitly by its Householder reflectors; the public
/// API exposes `Qᵀ b` application and least-squares solves, which is all the
/// workspace needs. QR is the robust fallback when the Gram matrix used by
/// [`crate::decomp::Cholesky`]-based OLS is ill-conditioned (nearly collinear
/// sensor candidates).
///
/// # Example
///
/// ```
/// use voltsense_linalg::{Matrix, decomp::Qr};
///
/// # fn main() -> Result<(), voltsense_linalg::LinalgError> {
/// // Overdetermined system: fit x in A x ≈ b.
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
/// let qr = Qr::new(&a)?;
/// let x = qr.solve_least_squares(&[6.0, 0.0, 0.0])?;
/// assert_eq!(x.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorization: R in the upper triangle, Householder vectors
    /// (below-diagonal parts) in the lower triangle.
    packed: Matrix,
    /// Leading coefficients of the Householder vectors (the implicit 1.0 is
    /// replaced by `v0[k]` so the full vector can be reconstructed).
    v0: Vec<f64>,
    /// Scalar `tau = 2 / (vᵀv)` per reflector; zero for a skipped (already
    /// zero) column.
    tau: Vec<f64>,
    m: usize,
    n: usize,
}

impl Qr {
    /// Factorizes `a` (`m x n`, `m >= n`).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimensions`] if `m < n` or `a` is empty.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN or infinity.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m < n || n == 0 {
            return Err(LinalgError::InvalidDimensions {
                what: format!("QR requires m >= n >= 1, got {m}x{n}"),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { what: "QR input" });
        }
        let mut r = a.clone();
        let mut v0 = vec![0.0; n];
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += r[(i, k)] * r[(i, k)];
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                // Column already zero below (and at) the diagonal; skip.
                v0[k] = 0.0;
                tau[k] = 0.0;
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let vk0 = r[(k, k)] - alpha;
            // vᵀv = 2 norm (norm + |a_kk|); compute directly for stability.
            let mut vtv = vk0 * vk0;
            for i in (k + 1)..m {
                vtv += r[(i, k)] * r[(i, k)];
            }
            if vtv == 0.0 {
                v0[k] = 0.0;
                tau[k] = 0.0;
                r[(k, k)] = alpha;
                continue;
            }
            let t = 2.0 / vtv;
            // Apply reflector to the trailing columns: A -= t v (vᵀ A).
            for j in (k + 1)..n {
                let mut s = vk0 * r[(k, j)];
                for i in (k + 1)..m {
                    s += r[(i, k)] * r[(i, j)];
                }
                let ts = t * s;
                r[(k, j)] -= ts * vk0;
                for i in (k + 1)..m {
                    let vik = r[(i, k)];
                    r[(i, j)] -= ts * vik;
                }
            }
            // Store R's diagonal entry and the reflector.
            r[(k, k)] = alpha;
            v0[k] = vk0;
            tau[k] = t;
        }
        Ok(Qr {
            packed: r,
            v0,
            tau,
            m,
            n,
        })
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> Matrix {
        let mut r = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in i..self.n {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// Applies `Qᵀ` to a length-`m` vector, in place.
    fn apply_qt(&self, b: &mut [f64]) {
        for k in 0..self.n {
            let t = self.tau[k];
            if t == 0.0 {
                continue;
            }
            let mut s = self.v0[k] * b[k];
            for (i, &bi) in b.iter().enumerate().take(self.m).skip(k + 1) {
                s += self.packed[(i, k)] * bi;
            }
            let ts = t * s;
            b[k] -= ts * self.v0[k];
            for (i, bi) in b.iter_mut().enumerate().take(self.m).skip(k + 1) {
                *bi -= ts * self.packed[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ‖A x − b‖₂`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != m`.
    /// * [`LinalgError::Singular`] if `R` has a (numerically) zero diagonal
    ///   entry, i.e. `A` is rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr solve",
                left: (self.m, self.n),
                right: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on the leading n x n triangle.
        let scale = self.packed.max_abs().max(1.0);
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let mut s = y[i];
            for (j, &xj) in x.iter().enumerate().take(self.n).skip(i + 1) {
                s -= self.packed[(i, j)] * xj;
            }
            let d = self.packed[(i, i)];
            if d.abs() <= scale * 1e-13 {
                return Err(LinalgError::Singular { index: i });
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Solves `min ‖A X − B‖_F` column by column.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Qr::solve_least_squares`], with shape checked
    /// against `B.rows()`.
    pub fn solve_least_squares_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        if b.rows() != self.m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr solve_matrix",
                left: (self.m, self.n),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(self.n, b.cols());
        let mut rhs = Vec::with_capacity(b.rows());
        for j in 0..b.cols() {
            b.col_into(j, &mut rhs);
            let x = self.solve_least_squares(&rhs)?;
            out.set_col(j, &x);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[3.0, 4.0],
            &[5.0, 6.0],
        ])
        .unwrap();
        let qr = Qr::new(&a).unwrap();
        let r = qr.r();
        assert_eq!(r.shape(), (2, 2));
        assert_eq!(r[(1, 0)], 0.0);
    }

    #[test]
    fn square_solve_exact() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        // A [1, 2]ᵀ = [4, 7]ᵀ
        let x = qr.solve_least_squares(&[4.0, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[1.0, 2.0],
            &[1.0, 3.0],
        ])
        .unwrap();
        let b = [1.0, 2.9, 5.1, 7.0];
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        // Normal equations: (AᵀA) x = Aᵀ b.
        let at = a.transpose();
        let ata = at.matmul(&a).unwrap();
        let atb = at.matvec(&b).unwrap();
        let chol = crate::decomp::Cholesky::new(&ata).unwrap();
        let x_ne = chol.solve(&atb).unwrap();
        for (xi, xn) in x.iter().zip(&x_ne) {
            assert!((xi - xn).abs() < 1e-10, "{xi} vs {xn}");
        }
    }

    #[test]
    fn residual_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[0.5, -1.0],
            &[3.0, 0.25],
            &[-2.0, 1.5],
        ])
        .unwrap();
        let b = [1.0, -2.0, 0.5, 4.0];
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        // Residual must be orthogonal to the column space: Aᵀ r = 0.
        let atr = a.transpose().matvec(&resid).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-12, "residual not orthogonal: {v}");
        }
    }

    #[test]
    fn rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Qr::new(&a),
            Err(LinalgError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn detects_rank_deficiency() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[2.0, 4.0],
            &[3.0, 6.0],
        ])
        .unwrap();
        let qr = Qr::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_nan() {
        let a = Matrix::from_rows(&[&[f64::NAN], &[1.0]]).unwrap();
        assert!(matches!(Qr::new(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn solve_matrix_columns_independent() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 3.0], &[4.0, 2.0], &[0.0, 0.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares_matrix(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-12);
        assert!((x[(0, 1)] - 3.0).abs() < 1e-12);
        assert!((x[(1, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_column_handled() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0], &[0.0, 1.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        // First column all-zero => rank deficient; solve should error, not panic.
        assert!(qr.solve_least_squares(&[1.0, 1.0, 1.0]).is_err());
    }
}
