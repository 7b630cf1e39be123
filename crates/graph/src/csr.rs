//! Compressed sparse row adjacency with message-passing kernels.

use serde::{Deserialize, Serialize};
use spatl_tensor::Tensor;

/// A sparse matrix in CSR form, used as the (normalised) adjacency of the
/// computational graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Csr {
    /// Row pointer, length `rows + 1`.
    pub indptr: Vec<usize>,
    /// Column indices.
    pub indices: Vec<usize>,
    /// Edge weights.
    pub weights: Vec<f32>,
    /// Number of rows (= columns; adjacency is square).
    pub n: usize,
}

impl Csr {
    /// Build a row-normalised adjacency (with self-loops) from an edge
    /// list over `n` nodes. Duplicate edges are merged.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Csr {
        let mut neigh: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} nodes");
            neigh[a].push(b);
            neigh[b].push(a);
        }
        for (i, ns) in neigh.iter_mut().enumerate() {
            ns.push(i); // self-loop
            ns.sort_unstable();
            ns.dedup();
        }
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        indptr.push(0);
        for ns in &neigh {
            let w = 1.0 / ns.len() as f32;
            for &j in ns {
                indices.push(j);
                weights.push(w);
            }
            indptr.push(indices.len());
        }
        Csr {
            indptr,
            indices,
            weights,
            n,
        }
    }

    /// `Y = A · X` for dense `X: [n, f]`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims()[0], self.n, "spmm row mismatch");
        let f = x.dims()[1];
        let mut y = Tensor::zeros([self.n, f]);
        let xd = x.data();
        let yd = y.data_mut();
        for row in 0..self.n {
            let out = &mut yd[row * f..(row + 1) * f];
            for e in self.indptr[row]..self.indptr[row + 1] {
                let col = self.indices[e];
                let w = self.weights[e];
                let src = &xd[col * f..(col + 1) * f];
                for (o, s) in out.iter_mut().zip(src) {
                    *o += w * s;
                }
            }
        }
        y
    }

    /// `Y = Aᵀ · X` — the adjoint used in the GNN backward pass.
    pub fn spmm_t(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dims()[0], self.n, "spmm_t row mismatch");
        let f = x.dims()[1];
        let mut y = Tensor::zeros([self.n, f]);
        let xd = x.data();
        let yd = y.data_mut();
        for row in 0..self.n {
            let src = &xd[row * f..(row + 1) * f];
            for e in self.indptr[row]..self.indptr[row + 1] {
                let col = self.indices[e];
                let w = self.weights[e];
                let out = &mut yd[col * f..(col + 1) * f];
                for (o, s) in out.iter_mut().zip(src) {
                    *o += w * s;
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_normalised() {
        let a = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        for row in 0..3 {
            let s: f32 = (a.indptr[row]..a.indptr[row + 1])
                .map(|e| a.weights[e])
                .sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn self_loops_always_present() {
        let a = Csr::from_edges(2, &[]);
        assert_eq!(a.indices.len(), 2);
        let x = Tensor::from_vec([2, 1], vec![3.0, 5.0]).unwrap();
        let y = a.spmm(&x);
        assert_eq!(y.data(), &[3.0, 5.0]);
    }

    #[test]
    fn spmm_averages_neighbours() {
        // Path graph 0-1-2: node 1 sees {0,1,2} each with weight 1/3.
        let a = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let x = Tensor::from_vec([3, 1], vec![3.0, 0.0, 6.0]).unwrap();
        let y = a.spmm(&x);
        assert!((y.data()[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn spmm_t_is_adjoint() {
        let a = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let x = Tensor::from_vec([4, 2], (0..8).map(|v| v as f32).collect()).unwrap();
        let y = Tensor::from_vec([4, 2], (0..8).map(|v| (v * 3 % 5) as f32).collect()).unwrap();
        // <Ax, y> == <x, Aᵀy>
        let lhs = a.spmm(&x).dot(&y).unwrap();
        let rhs = x.dot(&a.spmm_t(&y)).unwrap();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn duplicate_edges_merged() {
        let a = Csr::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(a.indices.len(), 4); // each node: self + other
    }
}
