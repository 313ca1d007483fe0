//! Block extraction, insertion and stacking.
//!
//! The Loewner pencil of the MFTI paper is assembled block-by-block
//! (Eqs. 11–12) and grown incrementally by Algorithm 2, so cheap block
//! surgery is a first-class operation here.

use crate::error::NumericError;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

impl<T: Scalar> Matrix<T> {
    /// Copies the block with top-left corner `(row, col)` and shape
    /// `(height, width)` into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when the block exceeds the
    /// matrix bounds.
    pub fn submatrix(
        &self,
        row: usize,
        col: usize,
        height: usize,
        width: usize,
    ) -> Result<Self, NumericError> {
        if row + height > self.rows() || col + width > self.cols() {
            return Err(NumericError::InvalidArgument {
                what: "submatrix exceeds matrix bounds",
            });
        }
        let mut data = Vec::with_capacity(height * width);
        for i in row..row + height {
            data.extend_from_slice(&self.row(i)[col..col + width]);
        }
        Matrix::from_vec(height, width, data)
    }

    /// Copies the listed rows (in order, repeats allowed) into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when an index is out of
    /// bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self, NumericError> {
        if indices.iter().any(|&i| i >= self.rows()) {
            return Err(NumericError::InvalidArgument {
                what: "select_rows index out of bounds",
            });
        }
        Ok(Matrix::from_fn(indices.len(), self.cols(), |i, j| {
            self[(indices[i], j)]
        }))
    }

    /// Copies the listed columns (in order, repeats allowed) into a new
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when an index is out of
    /// bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Result<Self, NumericError> {
        if indices.iter().any(|&j| j >= self.cols()) {
            return Err(NumericError::InvalidArgument {
                what: "select_cols index out of bounds",
            });
        }
        Ok(Matrix::from_fn(self.rows(), indices.len(), |i, j| {
            self[(i, indices[j])]
        }))
    }

    /// Overwrites the block with top-left corner `(row, col)` with `block`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when the block exceeds the
    /// matrix bounds.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Self) -> Result<(), NumericError> {
        if row + block.rows() > self.rows() || col + block.cols() > self.cols() {
            return Err(NumericError::InvalidArgument {
                what: "set_block exceeds matrix bounds",
            });
        }
        let width = block.cols();
        for i in 0..block.rows() {
            self.row_mut(row + i)[col..col + width].copy_from_slice(block.row(i));
        }
        Ok(())
    }

    /// Stacks matrices left-to-right: `[a | b | …]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when the input is empty or
    /// row counts differ.
    pub fn hstack(parts: &[&Self]) -> Result<Self, NumericError> {
        let first = parts.first().ok_or(NumericError::InvalidArgument {
            what: "hstack of zero matrices",
        })?;
        let rows = first.rows();
        if parts.iter().any(|p| p.rows() != rows) {
            return Err(NumericError::InvalidArgument {
                what: "hstack requires equal row counts",
            });
        }
        let cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for p in parts {
            out.set_block(0, offset, p)?;
            offset += p.cols();
        }
        Ok(out)
    }

    /// Stacks matrices top-to-bottom: `[a; b; …]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when the input is empty or
    /// column counts differ.
    pub fn vstack(parts: &[&Self]) -> Result<Self, NumericError> {
        let first = parts.first().ok_or(NumericError::InvalidArgument {
            what: "vstack of zero matrices",
        })?;
        let cols = first.cols();
        if parts.iter().any(|p| p.cols() != cols) {
            return Err(NumericError::InvalidArgument {
                what: "vstack requires equal column counts",
            });
        }
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for p in parts {
            out.set_block(offset, 0, p)?;
            offset += p.rows();
        }
        Ok(out)
    }

    /// The adjoint of a left-to-right stack, `[a | b | …]ᴴ =
    /// [aᴴ; bᴴ; …]`, written straight into one allocation: no stacked
    /// copy and no second transpose pass. Row `j` of the result is the
    /// conjugated column `j` of the stack.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when the input is empty or
    /// row counts differ.
    pub fn adjoint_of_block_row(parts: &[&Self]) -> Result<Self, NumericError> {
        let first = parts.first().ok_or(NumericError::InvalidArgument {
            what: "block row of zero matrices",
        })?;
        let rows = first.rows();
        if parts.iter().any(|p| p.rows() != rows) {
            return Err(NumericError::InvalidArgument {
                what: "block row requires equal row counts",
            });
        }
        let cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Matrix::zeros(cols, rows);
        let mut rest = out.as_mut_slice();
        for p in parts {
            let (block, tail) = rest.split_at_mut(p.cols() * rows);
            crate::kernel::pack_transpose_into(p, true, block);
            rest = tail;
        }
        Ok(out)
    }

    /// Builds a block-diagonal matrix from the given square or rectangular
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] when the input is empty.
    pub fn block_diag(parts: &[&Self]) -> Result<Self, NumericError> {
        if parts.is_empty() {
            return Err(NumericError::InvalidArgument {
                what: "block_diag of zero matrices",
            });
        }
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        let cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Matrix::zeros(rows, cols);
        let (mut r, mut c) = (0, 0);
        for p in parts {
            out.set_block(r, c, p)?;
            r += p.rows();
            c += p.cols();
        }
        Ok(out)
    }

    /// Appends `block` to the right edge (grows columns).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] on row-count mismatch.
    pub fn append_cols(&self, block: &Self) -> Result<Self, NumericError> {
        Self::hstack(&[self, block])
    }

    /// Appends `block` to the bottom edge (grows rows).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] on column-count mismatch.
    pub fn append_rows(&self, block: &Self) -> Result<Self, NumericError> {
        Self::vstack(&[self, block])
    }
}

#[cfg(test)]
mod tests {
    use crate::matrix::RMatrix;

    fn counting(rows: usize, cols: usize) -> RMatrix {
        RMatrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64)
    }

    #[test]
    fn submatrix_extracts_expected_block() {
        let m = counting(4, 4);
        let b = m.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 1)], m[(2, 3)]);
        assert!(m.submatrix(3, 3, 2, 2).is_err());
    }

    #[test]
    fn select_rows_and_cols_allow_permutation_and_repeats() {
        let m = counting(3, 3);
        let r = m.select_rows(&[2, 0, 2]).unwrap();
        assert_eq!(r.rows(), 3);
        assert_eq!(r[(0, 0)], m[(2, 0)]);
        assert_eq!(r[(2, 1)], m[(2, 1)]);
        let c = m.select_cols(&[1]).unwrap();
        assert_eq!(c.dims(), (3, 1));
        assert_eq!(c[(2, 0)], m[(2, 1)]);
        assert!(m.select_rows(&[3]).is_err());
        assert!(m.select_cols(&[9]).is_err());
    }

    #[test]
    fn hstack_vstack_shapes_and_contents() {
        let a = counting(2, 2);
        let b = RMatrix::identity(2);
        let h = RMatrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(h.dims(), (2, 4));
        assert_eq!(h[(1, 3)], 1.0);
        let v = RMatrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(v.dims(), (4, 2));
        assert_eq!(v[(2, 0)], 1.0);
    }

    #[test]
    fn adjoint_of_block_row_is_the_adjoint_of_the_stack() {
        let a = counting(3, 2);
        let b = counting(3, 5).scale(-0.5);
        let want = RMatrix::hstack(&[&a, &b]).unwrap().adjoint();
        let got = RMatrix::adjoint_of_block_row(&[&a, &b]).unwrap();
        assert_eq!(got.dims(), (7, 3));
        assert_eq!(got.as_slice(), want.as_slice());
        let z = crate::matrix::CMatrix::from_fn(2, 3, |i, j| crate::c64(i as f64, j as f64 + 1.0));
        let want = crate::matrix::CMatrix::hstack(&[&z, &z]).unwrap().adjoint();
        assert_eq!(
            crate::matrix::CMatrix::adjoint_of_block_row(&[&z, &z]).unwrap(),
            want
        );
        assert!(RMatrix::adjoint_of_block_row(&[&a, &counting(2, 2)]).is_err());
        assert!(RMatrix::adjoint_of_block_row(&[]).is_err());
    }

    #[test]
    fn stack_rejects_mismatch_and_empty() {
        let a = counting(2, 2);
        let b = counting(3, 3);
        assert!(RMatrix::hstack(&[&a, &b]).is_err());
        assert!(RMatrix::vstack(&[&a, &b]).is_err());
        assert!(RMatrix::hstack(&[]).is_err());
        assert!(RMatrix::block_diag(&[]).is_err());
    }

    #[test]
    fn block_diag_places_blocks_disjointly() {
        let a = counting(1, 2);
        let b = counting(2, 1);
        let d = RMatrix::block_diag(&[&a, &b]).unwrap();
        assert_eq!(d.dims(), (3, 3));
        assert_eq!(d[(0, 0)], a[(0, 0)]);
        assert_eq!(d[(0, 1)], a[(0, 1)]);
        assert_eq!(d[(1, 2)], b[(0, 0)]);
        assert_eq!(d[(2, 2)], b[(1, 0)]);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn append_grows_in_one_dimension() {
        let a = counting(2, 2);
        let wide = a.append_cols(&a).unwrap();
        assert_eq!(wide.dims(), (2, 4));
        let tall = a.append_rows(&a).unwrap();
        assert_eq!(tall.dims(), (4, 2));
    }

    #[test]
    fn set_block_overwrites_in_place() {
        let mut m = RMatrix::zeros(3, 3);
        let b = RMatrix::identity(2);
        m.set_block(1, 1, &b).unwrap();
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 1.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert!(m.set_block(2, 2, &b).is_err());
    }
}
