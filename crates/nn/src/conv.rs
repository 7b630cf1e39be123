//! 2-D convolution via channel-major `im2col` + matmul, with structured
//! channel masking.

use crate::param::Param;
use serde::{Deserialize, Serialize};
use spatl_tensor::{
    col2im_into, im2col_into, matmul_into, matmul_nt_into, matmul_tn_into, Conv2dGeometry, Tensor,
    TensorRng, Workspace,
};

/// A 2-D convolution layer over NCHW inputs.
///
/// The weight is stored pre-flattened as `[out_channels, in_channels·k·k]`
/// so forward/backward are single matmuls against the channel-major
/// `im2col` patch matrix `[in_channels·k·k, n·oh·ow]`: the long spatial
/// axis is every GEMM's wide side and the channel counts its short one.
///
/// `channel_mask` implements the structured pruning used by SPATL's salient
/// parameter selection: masked output channels produce zeros in the forward
/// pass and are excluded from the FLOPs accounting in `spatl-models`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Weight `[out_channels, in_channels·k·k]`.
    pub weight: Param,
    /// Bias `[out_channels]`.
    pub bias: Param,
    /// Number of output channels.
    pub out_channels: usize,
    /// Number of input channels.
    pub in_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Per-output-channel multiplier (1.0 = keep, 0.0 = pruned).
    pub channel_mask: Vec<f32>,
    #[serde(skip)]
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    cols: Tensor,
    geometry: Conv2dGeometry,
    batch: usize,
}

impl Conv2d {
    /// Create a convolution with Kaiming-uniform weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let patch = in_channels * kernel * kernel;
        let weight = rng.kaiming_uniform([out_channels, patch], patch);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros([out_channels])),
            out_channels,
            in_channels,
            kernel,
            stride,
            padding,
            channel_mask: vec![1.0; out_channels],
            cache: None,
        }
    }

    /// Number of output channels currently kept by the mask.
    pub fn active_channels(&self) -> usize {
        self.channel_mask.iter().filter(|&&m| m != 0.0).count()
    }

    /// Replace the channel mask. Panics if the length differs from
    /// `out_channels`.
    pub fn set_mask(&mut self, mask: Vec<f32>) {
        assert_eq!(mask.len(), self.out_channels, "mask length mismatch");
        self.channel_mask = mask;
    }

    /// Reset the mask to keep all channels.
    pub fn clear_mask(&mut self) {
        self.channel_mask = vec![1.0; self.out_channels];
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// Forward pass over `[n, c, h, w]`, drawing all temporaries from `ws`
    /// (steady-state allocation-free once the workspace is warm).
    ///
    /// The patch matrix is channel-major (`[c·k·k, n·oh·ow]`), so the
    /// product `W · cols` is `[out_c, n·oh·ow]`: one contiguous `oh·ow` run
    /// per (channel, image), which the bias+mask epilogue copies into NCHW.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "conv input must be NCHW");
        let (n, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let g = self.geometry(h, w);
        let spatial = g.cols();
        let co = self.out_channels;

        // The previous step's cached patch matrix feeds this step's buffers.
        if let Some(old) = self.cache.take() {
            ws.recycle(old.cols);
        }
        let mut cols = ws.take_tensor([g.patch_len(), n * spatial]);
        im2col_into(input, &g, &mut cols);
        let mut y = ws.take_tensor([co, n * spatial]);
        matmul_into(&self.weight.value, &cols, &mut y);
        // Every output element is written (masked channels as explicit
        // zeros), so the recycled buffer needs no pre-clearing.
        let mut out = ws.take_tensor([n, co, g.out_h(), g.out_w()]);
        let b = self.bias.value.data();
        for (plane, dst) in out.data_mut().chunks_exact_mut(spatial).enumerate() {
            let (img, oc) = (plane / co, plane % co);
            let (bias, m) = (b[oc], self.channel_mask[oc]);
            let src = &y.data()[(oc * n + img) * spatial..(oc * n + img + 1) * spatial];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = (v + bias) * m;
            }
        }
        ws.recycle(y);
        if train {
            self.cache = Some(ConvCache {
                cols,
                geometry: g,
                batch: n,
            });
        } else {
            ws.recycle(cols);
        }
        out
    }

    /// Backward pass drawing all temporaries from `ws`: accumulate weight
    /// and bias gradients and return the gradient with respect to the
    /// input.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self.cache.as_ref().expect("conv backward without forward");
        let g = cache.geometry;
        let n = cache.batch;
        let spatial = g.cols();
        let co = self.out_channels;

        // NCHW grad -> channel-major [out_c, n·oh·ow] applying the channel
        // mask (masked channels contribute no gradient; every element
        // written).
        let mut gy = ws.take_tensor([co, n * spatial]);
        {
            let dst = gy.data_mut();
            for (plane, src) in grad_out.data().chunks_exact(spatial).enumerate() {
                let (img, oc) = (plane / co, plane % co);
                let m = self.channel_mask[oc];
                let run = &mut dst[(oc * n + img) * spatial..(oc * n + img + 1) * spatial];
                for (d, &v) in run.iter_mut().zip(src) {
                    *d = v * m;
                }
            }
        }

        // grad_w = gy · colsᵀ -> [out_c, patch]
        let mut gw = ws.take_tensor([co, g.patch_len()]);
        matmul_nt_into(&gy, &cache.cols, &mut gw);
        self.weight.grad.add_assign(&gw).expect("weight grad shape");
        ws.recycle(gw);

        // grad_b = row sums of gy, each in ascending position order; the
        // channels advance together so their add chains overlap.
        let gb = self.bias.grad.data_mut();
        for pos in 0..n * spatial {
            for (oc, g) in gb.iter_mut().enumerate() {
                *g += gy.data()[oc * n * spatial + pos];
            }
        }

        // grad_cols = Wᵀ · gy -> [patch, n·oh·ow]; grad_x = col2im.
        let mut grad_cols = ws.take_tensor([g.patch_len(), n * spatial]);
        matmul_tn_into(&self.weight.value, &gy, &mut grad_cols);
        ws.recycle(gy);
        let mut gx = ws.take_tensor([n, g.in_channels, g.in_h, g.in_w]);
        col2im_into(&grad_cols, &g, &mut gx);
        ws.recycle(grad_cols);
        gx
    }

    /// Drop any cached activations (e.g. before serialising).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_tensor::TensorRng;

    #[test]
    fn forward_shape_and_mask() {
        let mut rng = TensorRng::seed_from(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor([2, 3, 8, 8], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = conv.forward_ws(&x, true, &mut ws);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);

        // Mask half the channels and confirm they are exactly zero.
        let mut mask = vec![1.0; 8];
        for m in mask.iter_mut().take(4) {
            *m = 0.0;
        }
        conv.set_mask(mask);
        let y = conv.forward_ws(&x, false, &mut ws);
        let spatial = 64;
        for img in 0..2 {
            for oc in 0..4 {
                let base = (img * 8 + oc) * spatial;
                assert!(y.data()[base..base + spatial].iter().all(|&v| v == 0.0));
            }
            for oc in 4..8 {
                let base = (img * 8 + oc) * spatial;
                assert!(y.data()[base..base + spatial].iter().any(|&v| v != 0.0));
            }
        }
        assert_eq!(conv.active_channels(), 4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor([1, 2, 5, 5], 0.0, 1.0);

        // Loss = sum(y); analytic gradient vs central differences for a few
        // weight entries and input entries.
        let mut ws = Workspace::new();
        let y = conv.forward_ws(&x, true, &mut ws);
        let grad_out = Tensor::ones(y.dims().to_vec());
        let gx = conv.backward_ws(&grad_out, &mut ws);

        let eps = 1e-3;
        for &wi in &[0usize, 5, 17, 30] {
            let mut cp = conv.clone();
            cp.weight.value.data_mut()[wi] += eps;
            let up = cp.forward_ws(&x, false, &mut ws).sum();
            let mut cm = conv.clone();
            cm.weight.value.data_mut()[wi] -= eps;
            let down = cm.forward_ws(&x, false, &mut ws).sum();
            let fd = (up - down) / (2.0 * eps);
            let an = conv.weight.grad.data()[wi];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "w[{wi}]: fd={fd} an={an}"
            );
        }
        for &xi in &[0usize, 7, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let up = conv.clone().forward_ws(&xp, false, &mut ws).sum();
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let down = conv.clone().forward_ws(&xm, false, &mut ws).sum();
            let fd = (up - down) / (2.0 * eps);
            let an = gx.data()[xi];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "x[{xi}]: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn bias_gradient_is_count_of_positions() {
        let mut rng = TensorRng::seed_from(3);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        let x = rng.normal_tensor([3, 1, 4, 4], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = conv.forward_ws(&x, true, &mut ws);
        conv.backward_ws(&Tensor::ones(y.dims().to_vec()), &mut ws);
        // dL/db = number of output positions per channel = 3·16.
        for &g in conv.bias.grad.data() {
            assert!((g - 48.0).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn wrong_mask_length_panics() {
        let mut rng = TensorRng::seed_from(4);
        let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
        conv.set_mask(vec![1.0; 3]);
    }
}
