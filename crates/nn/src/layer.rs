//! Layer specifications (the parsed form of a Darknet `.cfg`) and the
//! convolution algorithm-selection policy.

use lva_kernels::aux::Activation;
use lva_kernels::{ConvParams, GemmVariant};

/// Shorthand: linear shortcut (YOLOv3 residual blocks).
pub fn shortcut(from: isize) -> LayerSpec {
    LayerSpec::Shortcut { from, activation: Activation::Linear }
}

/// One layer of a network definition. Indices in `Route`/`Shortcut` follow
/// Darknet: negative values are relative to the current layer, non-negative
/// values are absolute layer indices.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// Convolution; `pad = size / 2` (Darknet's `pad=1` convention).
    Conv { filters: usize, size: usize, stride: usize, batch_norm: bool, activation: Activation },
    /// Depthwise convolution (groups = channels, MobileNet-style); the
    /// filter count equals the input channel count.
    Depthwise { size: usize, stride: usize, batch_norm: bool, activation: Activation },
    /// Darknet maxpool (total padding defaults to `size - 1`).
    Maxpool { size: usize, stride: usize },
    /// Nearest-neighbour 2x upsample.
    Upsample,
    /// Channel concatenation of earlier layers' outputs.
    Route { layers: Vec<isize> },
    /// Residual addition with an earlier layer (linear activation in
    /// YOLOv3; ReLU in ResNet).
    Shortcut { from: isize, activation: Activation },
    /// YOLO detection head: treated as a pass-through copy (its box decoding
    /// is outside the paper's kernel study).
    Yolo,
    /// Fully-connected layer over the flattened input.
    Connected { outputs: usize, activation: Activation },
    /// Softmax over the flattened input.
    Softmax,
    /// Global average pooling over the spatial dimensions.
    Avgpool,
    /// Dropout: an inference-time no-op (pass-through), present so layer
    /// counts match the Darknet cfg files.
    Dropout,
    /// Cost layer: terminal no-op, present for cfg-faithful layer counts.
    Cost,
}

impl LayerSpec {
    /// Shorthand used by the model tables: batch-normed leaky conv.
    pub fn conv(filters: usize, size: usize, stride: usize) -> Self {
        LayerSpec::Conv { filters, size, stride, batch_norm: true, activation: Activation::Leaky }
    }

    /// Shorthand: linear 1x1 detection conv (no batch-norm), as used before
    /// every `yolo` layer.
    pub fn conv_linear(filters: usize) -> Self {
        LayerSpec::Conv {
            filters,
            size: 1,
            stride: 1,
            batch_norm: false,
            activation: Activation::Linear,
        }
    }

    /// Shorthand: VGG-style ReLU conv without batch-norm.
    pub fn conv_relu(filters: usize, size: usize, stride: usize) -> Self {
        LayerSpec::Conv { filters, size, stride, batch_norm: false, activation: Activation::Relu }
    }

    /// Short human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            LayerSpec::Conv { filters, size, stride, .. } => {
                format!("conv {filters} {size}x{size}/{stride}")
            }
            LayerSpec::Depthwise { size, stride, .. } => format!("dw {size}x{size}/{stride}"),
            LayerSpec::Maxpool { size, stride } => format!("max {size}x{size}/{stride}"),
            LayerSpec::Upsample => "upsample 2x".into(),
            LayerSpec::Route { layers } => format!("route {layers:?}"),
            LayerSpec::Shortcut { from, .. } => format!("shortcut {from}"),
            LayerSpec::Yolo => "yolo".into(),
            LayerSpec::Connected { outputs, .. } => format!("connected {outputs}"),
            LayerSpec::Softmax => "softmax".into(),
            LayerSpec::Avgpool => "avgpool".into(),
            LayerSpec::Dropout => "dropout".into(),
            LayerSpec::Cost => "cost".into(),
        }
    }
}

/// Which algorithm a convolution layer ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAlgo {
    Im2colGemm,
    Winograd,
    /// The im2col-free direct algorithm (§II-C: best for 1x1 kernels).
    Direct,
}

/// Algorithm-selection policy for convolutional layers (§VII: "we use
/// Winograd for all convolutional layers with 3x3 kernel sizes and stride 1,
/// and default to our optimized im2col+GEMM implementation for all other
/// cases").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvPolicy {
    /// GEMM implementation for the im2col+GEMM path.
    pub gemm: GemmVariant,
    /// Use Winograd for 3x3 stride-1 layers.
    pub winograd: bool,
    /// Also use Winograd for 3x3 stride-2 layers (§VII-A measured this and
    /// found it 1.4x slower than im2col+GEMM).
    pub winograd_stride2: bool,
    /// Route 1x1 layers to the direct (im2col-free) algorithm (§II-C).
    pub direct_1x1: bool,
}

impl ConvPolicy {
    /// im2col+GEMM everywhere with the given variant.
    pub fn gemm_only(gemm: GemmVariant) -> Self {
        ConvPolicy { gemm, winograd: false, winograd_stride2: false, direct_1x1: false }
    }

    /// The paper's §VII-B selection: Winograd for 3x3 stride-1, optimized
    /// GEMM elsewhere.
    pub fn winograd_default(gemm: GemmVariant) -> Self {
        ConvPolicy { gemm, winograd: true, winograd_stride2: false, direct_1x1: false }
    }

    /// Choose the algorithm for one layer.
    pub fn select(&self, p: &ConvParams) -> ConvAlgo {
        if self.winograd && p.k == 3 && (p.stride == 1 || (p.stride == 2 && self.winograd_stride2))
        {
            ConvAlgo::Winograd
        } else if self.direct_1x1 && p.k == 1 {
            ConvAlgo::Direct
        } else {
            ConvAlgo::Im2colGemm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(k: usize, stride: usize) -> ConvParams {
        ConvParams { in_c: 8, in_h: 16, in_w: 16, out_c: 8, k, stride, pad: k / 2 }
    }

    #[test]
    fn policy_selects_per_paper() {
        let pol = ConvPolicy::winograd_default(GemmVariant::opt3());
        assert_eq!(pol.select(&p(3, 1)), ConvAlgo::Winograd);
        assert_eq!(pol.select(&p(3, 2)), ConvAlgo::Im2colGemm);
        assert_eq!(pol.select(&p(1, 1)), ConvAlgo::Im2colGemm);
        let pol2 = ConvPolicy { winograd_stride2: true, ..pol };
        assert_eq!(pol2.select(&p(3, 2)), ConvAlgo::Winograd);
        let pol3 = ConvPolicy::gemm_only(GemmVariant::opt3());
        assert_eq!(pol3.select(&p(3, 1)), ConvAlgo::Im2colGemm);
        let pol4 = ConvPolicy { direct_1x1: true, ..pol3 };
        assert_eq!(pol4.select(&p(1, 1)), ConvAlgo::Direct);
        assert_eq!(pol4.select(&p(3, 1)), ConvAlgo::Im2colGemm);
    }

    #[test]
    fn describe_strings() {
        assert_eq!(LayerSpec::conv(32, 3, 1).describe(), "conv 32 3x3/1");
        assert_eq!(LayerSpec::Maxpool { size: 2, stride: 2 }.describe(), "max 2x2/2");
    }
}
