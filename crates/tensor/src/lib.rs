//! # lva-tensor — tensors over the simulated memory arena
//!
//! CNN data in this workspace lives in the simulated [`lva_sim::Memory`]
//! arena so that every kernel's address stream is visible to the cache model.
//! A [`Tensor`] is a shape descriptor over a [`Buf`]; layouts follow Darknet:
//! feature maps are CHW (single-image inference, so N = 1 throughout, as in
//! the paper), convolution weights are `[out_ch][in_ch][kh][kw]`, and GEMM
//! matrices are row-major.

#![forbid(unsafe_code)]
use lva_isa::Machine;
use lva_sim::{Buf, Rng};

/// CHW shape of a feature map (single image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub c: usize,
    pub h: usize,
    pub w: usize,
}

impl Shape {
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Shape { c, h, w }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear CHW index.
    #[inline]
    pub fn idx(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        (c * self.h + y) * self.w + x
    }
}

/// A CHW feature map stored in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct Tensor {
    pub buf: Buf,
    pub shape: Shape,
}

impl Tensor {
    /// Allocate a zeroed tensor in the machine's arena.
    pub fn alloc(m: &mut Machine, shape: Shape) -> Self {
        let buf = m.mem.alloc(shape.len());
        Tensor { buf, shape }
    }

    /// Allocate and fill from host data (row-major CHW).
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_host(m: &mut Machine, shape: Shape, data: &[f32]) -> Self {
        assert_eq!(data.len(), shape.len(), "shape/data mismatch");
        let buf = m.mem.alloc_from(data);
        Tensor { buf, shape }
    }

    /// Allocate with deterministic pseudo-random contents in `[-1, 1)`.
    ///
    /// Used for synthetic weights and inputs: inference *performance* is
    /// independent of the values, and kernel correctness is established
    /// against scalar references (see DESIGN.md substitutions).
    pub fn random(m: &mut Machine, shape: Shape, seed: u64) -> Self {
        let data = Rng::new(seed).f32_vec(shape.len());
        Self::from_host(m, shape, &data)
    }

    /// Copy the contents out to a host vector.
    pub fn to_host(&self, m: &Machine) -> Vec<f32> {
        m.mem.slice(self.buf).to_vec()
    }

    /// Byte address of element `(c, y, x)`.
    #[inline]
    pub fn addr(&self, c: usize, y: usize, x: usize) -> u64 {
        self.buf.addr(self.shape.idx(c, y, x))
    }
}

/// A row-major matrix stored in simulated memory (GEMM operand).
#[derive(Debug, Clone, Copy)]
pub struct Matrix {
    pub buf: Buf,
    pub rows: usize,
    pub cols: usize,
}

impl Matrix {
    pub fn alloc(m: &mut Machine, rows: usize, cols: usize) -> Self {
        let buf = m.mem.alloc(rows * cols);
        Matrix { buf, rows, cols }
    }

    pub fn from_host(m: &mut Machine, rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape/data mismatch");
        let buf = m.mem.alloc_from(data);
        Matrix { buf, rows, cols }
    }

    pub fn random(m: &mut Machine, rows: usize, cols: usize, seed: u64) -> Self {
        let data = Rng::new(seed).f32_vec(rows * cols);
        Self::from_host(m, rows, cols, &data)
    }

    pub fn to_host(&self, m: &Machine) -> Vec<f32> {
        m.mem.slice(self.buf).to_vec()
    }

    /// Byte address of element `(r, c)`.
    #[inline]
    pub fn addr(&self, r: usize, c: usize) -> u64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.buf.addr(r * self.cols + c)
    }

    /// Element index of `(r, c)` within the backing buffer.
    #[inline]
    pub fn idx(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }
}

/// Deterministic host-side random vector (for reference kernels and tests).
pub fn host_random(n: usize, seed: u64) -> Vec<f32> {
    Rng::new(seed).f32_vec(n)
}

/// Relative error comparison suitable for reassociated float kernels:
/// `|a-b| <= atol + rtol * max(|a|,|b|)` element-wise.
pub fn approx_eq(a: &[f32], b: &[f32], rtol: f32, atol: f32) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= atol + rtol * x.abs().max(y.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_isa::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20))
    }

    #[test]
    fn shape_indexing_is_chw() {
        let s = Shape::new(3, 4, 5);
        assert_eq!(s.len(), 60);
        assert_eq!(s.idx(0, 0, 0), 0);
        assert_eq!(s.idx(0, 1, 0), 5);
        assert_eq!(s.idx(1, 0, 0), 20);
        assert_eq!(s.idx(2, 3, 4), 59);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut m = machine();
        let shape = Shape::new(2, 3, 4);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let t = Tensor::from_host(&mut m, shape, &data);
        assert_eq!(t.to_host(&m), data);
        assert_eq!(m.mem.read_addr(t.addr(1, 2, 3)), 23.0);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let mut m = machine();
        let a = Tensor::random(&mut m, Shape::new(1, 8, 8), 42);
        let b = Tensor::random(&mut m, Shape::new(1, 8, 8), 42);
        assert_eq!(a.to_host(&m), b.to_host(&m));
        assert!(a.to_host(&m).iter().all(|x| (-1.0..1.0).contains(x)));
    }

    #[test]
    fn matrix_addressing() {
        let mut m = machine();
        let mat = Matrix::random(&mut m, 4, 7, 1);
        assert_eq!(mat.addr(2, 3), mat.buf.addr(2 * 7 + 3));
        assert_eq!(mat.idx(3, 6), 27);
    }

    #[test]
    fn approx_eq_tolerances() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-6, 2.0 - 1e-6], 1e-5, 0.0));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-5, 0.0));
        assert!(approx_eq(&[0.0], &[1e-9], 0.0, 1e-8));
        assert!(!approx_eq(&[1.0, 2.0], &[1.0], 1.0, 1.0), "length mismatch is not equal");
    }

    #[test]
    fn approx_eq_atol_bounds_the_largest_difference() {
        assert!(approx_eq(&[1.0, 5.0], &[2.0, 5.5], 0.0, 1.0));
        assert!(!approx_eq(&[1.0, 5.0], &[2.0, 5.5], 0.0, 0.99));
    }
}
