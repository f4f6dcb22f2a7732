//! Network construction and the inference runner.

use crate::layer::{ConvAlgo, ConvPolicy, LayerSpec};
use lva_isa::{LayerRecord, Machine, StallBreakdown, VpuStats};
use lva_kernels::aux::{
    activate_vec, add_bias_vec, add_inplace_vec, copy_vec, fill_vec, normalize_vec, scale_bias_vec,
    Activation,
};
use lva_kernels::depthwise::{conv_depthwise_vec, depthwise_flops, depthwise_params};
use lva_kernels::fc::{fully_connected_vec, softmax_vec};
use lva_kernels::gemm::GemmWorkspace;
use lva_kernels::pool::{global_avgpool_vec, maxpool_vec, upsample2_vec, PoolParams};
use lva_kernels::{conv_direct_vec, conv_im2col_gemm, ConvParams, GemmVariant};
use lva_sim::memsys::MemSystemStats;
use lva_sim::Buf;
use lva_tensor::{host_random, Shape, Tensor};
use lva_winograd::{winograd_conv_vla, WinogradPlan, WinogradScratch};

/// Batch-norm inference parameters of a convolutional layer.
#[derive(Debug, Clone, Copy)]
struct BnState {
    mean: Buf,
    var: Buf,
    scales: Buf,
}

#[derive(Debug)]
struct ConvState {
    params: ConvParams,
    algo: ConvAlgo,
    weights: Buf,
    bias: Buf,
    bn: Option<BnState>,
    activation: Activation,
    wino: Option<WinogradPlan>,
}

#[derive(Debug)]
struct FcState {
    w: Buf,
    bias: Buf,
    outputs: usize,
    inputs: usize,
    activation: Activation,
}

#[derive(Debug)]
struct DwState {
    params: ConvParams,
    weights: Buf,
    bias: Buf,
    bn: Option<BnState>,
    activation: Activation,
}

// One `Layer` exists per network layer (dozens per run); boxing the large
// conv variant would buy nothing but indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum LayerKind {
    Conv(ConvState),
    Depthwise(DwState),
    Pool(PoolParams),
    Avgpool,
    Upsample,
    Route(Vec<usize>),
    Shortcut(usize, Activation),
    Yolo,
    Fc(FcState),
    Softmax,
}

/// A built layer: spec + runtime state + output tensor.
#[derive(Debug)]
pub struct Layer {
    pub spec: LayerSpec,
    pub out: Tensor,
    kind: LayerKind,
}

/// Per-layer execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    pub index: usize,
    pub desc: String,
    pub cycles: u64,
    /// Arithmetic work of the layer's *mathematical* definition (2*M*N*K for
    /// convolutions), independent of the algorithm used.
    pub flops: u64,
    pub mnk: Option<(usize, usize, usize)>,
    pub algo: Option<ConvAlgo>,
    pub out_shape: Shape,
    /// Stall cycles incurred while this layer ran, attributed by cause.
    pub stalls: StallBreakdown,
    /// Average consumed vector length (bits) of this layer's instructions.
    pub avg_vlen_bits: f64,
}

impl LayerReport {
    /// A layer's report: its cycles, stalls and average vector length read
    /// from the machine's record of it, and its static description (`flops`,
    /// `mnk`, `algo`, `out_shape`) as the network built it. Live runs and
    /// replays both report through here.
    pub fn from_record(
        rec: &LayerRecord,
        flops: u64,
        mnk: Option<(usize, usize, usize)>,
        algo: Option<ConvAlgo>,
        out_shape: Shape,
    ) -> Self {
        LayerReport {
            index: rec.index,
            desc: rec.desc.clone(),
            cycles: rec.cycles(),
            flops,
            mnk,
            algo,
            out_shape,
            stalls: rec.stalls(),
            avg_vlen_bits: rec.vpu().avg_vlen_bits(),
        }
    }

    /// Achieved floating-point throughput: mathematical flops of the layer
    /// per simulated cycle it took.
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }
}

/// Whole-run record. Phase/statistics snapshots are the machine totals at
/// the end of the run; callers that want a clean measurement reset the
/// machine timing before calling [`Network::run`] (the paper excludes the
/// network-setup phase the same way).
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    pub layers: Vec<LayerReport>,
    pub cycles: u64,
    pub phases: lva_isa::PhaseTimer,
    pub vpu: VpuStats,
    pub mem: MemSystemStats,
    /// Stall cycles over the whole run, attributed by cause.
    pub stalls: StallBreakdown,
}

impl NetReport {
    /// Total mathematical flops across layers.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops).sum()
    }
}

/// A network instantiated on a machine: layer states, weights, workspaces.
#[derive(Debug)]
pub struct Network {
    pub input: Tensor,
    pub layers: Vec<Layer>,
    workspace: Buf,
    gemm_ws: Option<GemmWorkspace>,
    policy: ConvPolicy,
}

/// He-style scaled synthetic weights: keeps activation magnitudes O(1)
/// through deep networks so f32 end-to-end comparisons stay meaningful.
fn he_scaled(n: usize, fan_in: usize, seed: u64) -> Vec<f32> {
    let s = 1.0 / (fan_in as f32).sqrt();
    let mut w = host_random(n, seed);
    for v in &mut w {
        *v *= s;
    }
    w
}

/// Resolve a Darknet route/shortcut index (negative = relative) against
/// the `current` layers before it.
fn resolve(idx: isize, current: usize) -> Result<usize, String> {
    let abs = if idx < 0 { current as isize + idx } else { idx };
    usize::try_from(abs)
        .ok()
        .filter(|&a| a < current)
        .ok_or_else(|| format!("reference {idx} names no earlier layer"))
}

/// Static shape walk over a spec list: output shape per layer.
///
/// # Panics
/// Panics on a spec list [`check_shapes`] rejects.
pub fn walk_shapes(specs: &[LayerSpec], input: Shape) -> Vec<Shape> {
    check_shapes(specs, input).unwrap_or_else(|e| panic!("{e}"))
}

/// [`walk_shapes`], or an error naming the first layer whose geometry is
/// impossible: a zero kernel size or stride, an empty output, a route or
/// shortcut reference to no earlier layer, or joined shapes that differ.
/// A Darknet cfg can say all of these and still parse.
///
/// # Errors
/// Returns `layer N (description): problem` for the first such layer.
pub fn check_shapes(specs: &[LayerSpec], input: Shape) -> Result<Vec<Shape>, String> {
    let mut shapes: Vec<Shape> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let prev = if i == 0 { input } else { shapes[i - 1] };
        let layer_err = |problem: String| format!("layer {i} ({}): {problem}", spec.describe());
        let window = |size: usize, stride: usize| {
            if size == 0 || stride == 0 {
                Err(layer_err("kernel size and stride must be at least 1".into()))
            } else if prev.is_empty() {
                Err(layer_err(format!("input {}x{}x{} is empty", prev.c, prev.h, prev.w)))
            } else {
                Ok(())
            }
        };
        let s = match spec {
            LayerSpec::Conv { filters, size, stride, .. } => {
                window(*size, *stride)?;
                let p = ConvParams {
                    in_c: prev.c,
                    in_h: prev.h,
                    in_w: prev.w,
                    out_c: *filters,
                    k: *size,
                    stride: *stride,
                    pad: size / 2,
                };
                let (oh, ow) = p.out_hw();
                Shape::new(*filters, oh, ow)
            }
            LayerSpec::Depthwise { size, stride, .. } => {
                window(*size, *stride)?;
                let p = depthwise_params(prev.c, prev.h, prev.w, *size, *stride);
                let (oh, ow) = p.out_hw();
                Shape::new(prev.c, oh, ow)
            }
            LayerSpec::Maxpool { size, stride } => {
                window(*size, *stride)?;
                let p = PoolParams::darknet(*size, *stride);
                let (oh, ow) = p.out_hw(prev.h, prev.w);
                Shape::new(prev.c, oh, ow)
            }
            LayerSpec::Upsample => Shape::new(prev.c, 2 * prev.h, 2 * prev.w),
            LayerSpec::Route { layers } => {
                let srcs = layers
                    .iter()
                    .map(|&x| resolve(x, i).map(|j| shapes[j]))
                    .collect::<Result<Vec<Shape>, String>>()
                    .map_err(layer_err)?;
                let (h, w) = (srcs[0].h, srcs[0].w);
                if srcs.iter().any(|s| s.h != h || s.w != w) {
                    return Err(layer_err("routed layers differ in spatial size".into()));
                }
                Shape::new(srcs.iter().map(|s| s.c).sum(), h, w)
            }
            LayerSpec::Shortcut { from, .. } => {
                let f = shapes[resolve(*from, i).map_err(layer_err)?];
                if f != prev {
                    return Err(layer_err(format!(
                        "shortcut source {}x{}x{} differs from its input {}x{}x{}",
                        f.c, f.h, f.w, prev.c, prev.h, prev.w
                    )));
                }
                prev
            }
            LayerSpec::Yolo | LayerSpec::Dropout | LayerSpec::Cost => prev,
            LayerSpec::Avgpool => Shape::new(prev.c, 1, 1),
            LayerSpec::Connected { outputs, .. } => Shape::new(*outputs, 1, 1),
            LayerSpec::Softmax => prev,
        };
        if s.is_empty() {
            return Err(layer_err("output is empty".into()));
        }
        shapes.push(s);
    }
    Ok(shapes)
}

/// All convolutional layers' geometry (used for Table IV and scratch
/// sizing).
pub fn conv_params_list(specs: &[LayerSpec], input: Shape) -> Vec<(usize, ConvParams)> {
    let shapes = walk_shapes(specs, input);
    specs
        .iter()
        .enumerate()
        .filter_map(|(i, spec)| match spec {
            LayerSpec::Conv { filters, size, stride, .. } => {
                let prev = if i == 0 { input } else { shapes[i - 1] };
                Some((
                    i,
                    ConvParams {
                        in_c: prev.c,
                        in_h: prev.h,
                        in_w: prev.w,
                        out_c: *filters,
                        k: *size,
                        stride: *stride,
                        pad: size / 2,
                    },
                ))
            }
            _ => None,
        })
        .collect()
}

impl Network {
    /// Build the network on `m`: allocate all tensors, synthesize weights
    /// (deterministic from `seed`), pre-select the convolution algorithm per
    /// layer, and prepare workspaces. Building is setup and is expected to
    /// be followed by [`Machine::reset_timing`] before measurement.
    pub fn build(
        m: &mut Machine,
        specs: &[LayerSpec],
        input_shape: Shape,
        policy: ConvPolicy,
        seed: u64,
    ) -> Self {
        let shapes = walk_shapes(specs, input_shape);
        let input = Tensor::alloc(m, input_shape);
        // Shared resources.
        let convs = conv_params_list(specs, input_shape);
        let mut max_ws = 1usize;
        let mut wino_layers: Vec<ConvParams> = Vec::new();
        for (_, p) in &convs {
            match policy.select(p) {
                ConvAlgo::Winograd => wino_layers.push(*p),
                ConvAlgo::Im2colGemm => max_ws = max_ws.max(p.workspace_words()),
                ConvAlgo::Direct => {}
            }
        }
        let workspace = m.mem.alloc(max_ws.max(1));
        let gemm_ws = match policy.gemm {
            GemmVariant::Opt6 { blocks, .. } => Some(GemmWorkspace::alloc(m, blocks)),
            _ => None,
        };
        let wino_scratch = if wino_layers.is_empty() {
            None
        } else {
            Some(WinogradScratch::for_layers(m, wino_layers.iter().copied()))
        };

        let mut layers: Vec<Layer> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let prev_shape = if i == 0 { input_shape } else { shapes[i - 1] };
            let out = Tensor::alloc(m, shapes[i]);
            let lseed = seed.wrapping_add(1 + i as u64);
            let kind = match spec {
                LayerSpec::Conv { filters, size, stride, batch_norm, activation } => {
                    let params = ConvParams {
                        in_c: prev_shape.c,
                        in_h: prev_shape.h,
                        in_w: prev_shape.w,
                        out_c: *filters,
                        k: *size,
                        stride: *stride,
                        pad: size / 2,
                    };
                    let (mm, _, kk) = params.gemm_mnk();
                    let weights = m.mem.alloc_from(&he_scaled(mm * kk, kk, lseed));
                    let bias = m.mem.alloc_from(&host_random(*filters, lseed ^ 0xb1a5));
                    let bn = if *batch_norm {
                        let mean = m.mem.alloc_from(&host_random(*filters, lseed ^ 0x3ea));
                        let var = m.mem.alloc_from(
                            &host_random(*filters, lseed ^ 0x7a8)
                                .iter()
                                .map(|v| v.abs() + 0.5)
                                .collect::<Vec<_>>(),
                        );
                        let scales = m.mem.alloc_from(&host_random(*filters, lseed ^ 0x5ca));
                        Some(BnState { mean, var, scales })
                    } else {
                        None
                    };
                    let algo = policy.select(&params);
                    let wino = match algo {
                        ConvAlgo::Winograd => Some(WinogradPlan::new_shared(
                            m,
                            params,
                            weights,
                            wino_scratch.as_ref().expect("scratch allocated"),
                        )),
                        ConvAlgo::Im2colGemm | ConvAlgo::Direct => None,
                    };
                    LayerKind::Conv(ConvState {
                        params,
                        algo,
                        weights,
                        bias,
                        bn,
                        activation: *activation,
                        wino,
                    })
                }
                LayerSpec::Depthwise { size, stride, batch_norm, activation } => {
                    let params =
                        depthwise_params(prev_shape.c, prev_shape.h, prev_shape.w, *size, *stride);
                    let weights = m.mem.alloc_from(&he_scaled(
                        prev_shape.c * size * size,
                        size * size,
                        lseed,
                    ));
                    let bias = m.mem.alloc_from(&host_random(prev_shape.c, lseed ^ 0xb1a5));
                    let bn = if *batch_norm {
                        let mean = m.mem.alloc_from(&host_random(prev_shape.c, lseed ^ 0x3ea));
                        let var = m.mem.alloc_from(
                            &host_random(prev_shape.c, lseed ^ 0x7a8)
                                .iter()
                                .map(|v| v.abs() + 0.5)
                                .collect::<Vec<_>>(),
                        );
                        let scales = m.mem.alloc_from(&host_random(prev_shape.c, lseed ^ 0x5ca));
                        Some(BnState { mean, var, scales })
                    } else {
                        None
                    };
                    LayerKind::Depthwise(DwState {
                        params,
                        weights,
                        bias,
                        bn,
                        activation: *activation,
                    })
                }
                LayerSpec::Maxpool { size, stride } => {
                    LayerKind::Pool(PoolParams::darknet(*size, *stride))
                }
                LayerSpec::Upsample => LayerKind::Upsample,
                LayerSpec::Route { layers: ls } => {
                    let src = |&x: &isize| resolve(x, i).expect("walk_shapes checked it");
                    LayerKind::Route(ls.iter().map(src).collect())
                }
                LayerSpec::Shortcut { from, activation } => {
                    let src = resolve(*from, i).expect("walk_shapes checked it");
                    LayerKind::Shortcut(src, *activation)
                }
                LayerSpec::Yolo => LayerKind::Yolo,
                LayerSpec::Connected { outputs, activation } => {
                    let inputs = prev_shape.len();
                    let w = m.mem.alloc_from(&he_scaled(outputs * inputs, inputs, lseed));
                    let bias = m.mem.alloc_from(&host_random(*outputs, lseed ^ 0xb1a5));
                    LayerKind::Fc(FcState {
                        w,
                        bias,
                        outputs: *outputs,
                        inputs,
                        activation: *activation,
                    })
                }
                LayerSpec::Softmax => LayerKind::Softmax,
                LayerSpec::Avgpool => LayerKind::Avgpool,
                LayerSpec::Dropout | LayerSpec::Cost => LayerKind::Yolo, // pass-through
            };
            layers.push(Layer { spec: spec.clone(), out, kind });
        }
        Network { input, layers, workspace, gemm_ws, policy }
    }

    /// Run inference over `image` (CHW, matching the input shape), returning
    /// per-layer and aggregate statistics.
    ///
    /// # Panics
    /// Panics if `image` does not match the input shape.
    pub fn run(&mut self, m: &mut Machine, image: &[f32]) -> NetReport {
        assert_eq!(image.len(), self.input.shape.len(), "input size mismatch");
        m.mem.slice_mut(self.input.buf).copy_from_slice(image);
        let run_t0 = m.cycles();
        let run_stalls0 = m.stalls;
        let mut net_span = lva_trace::span("network");
        let mut reports: Vec<LayerReport> = Vec::with_capacity(self.layers.len());
        // Split borrows: the loop needs `self.layers[i]` mutably plus reads
        // of earlier layers' outputs, so work with raw indices.
        for i in 0..self.layers.len() {
            // Opened before the layer body so kernel-phase spans nest inside.
            let mut layer_span = lva_trace::span("layer");
            m.layer_begin(i, &self.layers[i].spec.describe());
            let prev_out: Tensor = if i == 0 { self.input } else { self.layers[i - 1].out };
            let (mnk, algo, flops);
            // Take what we need out of the layer to satisfy the borrow
            // checker (the winograd plan holds mutable scratch).
            let out = self.layers[i].out;
            match &mut self.layers[i].kind {
                LayerKind::Conv(cs) => {
                    mnk = Some(cs.params.gemm_mnk());
                    algo = Some(cs.algo);
                    flops = cs.params.flops();
                    let spatial = out.shape.h * out.shape.w;
                    match cs.algo {
                        ConvAlgo::Im2colGemm => {
                            fill_vec(m, out.buf, 0, out.shape.len(), 0.0);
                            conv_im2col_gemm(
                                m,
                                self.policy.gemm,
                                &cs.params,
                                &prev_out,
                                cs.weights,
                                self.workspace,
                                out.buf,
                                self.gemm_ws.as_ref(),
                            );
                        }
                        ConvAlgo::Winograd => {
                            let plan = cs.wino.as_mut().expect("winograd plan");
                            winograd_conv_vla(m, plan, &prev_out, out.buf);
                        }
                        ConvAlgo::Direct => {
                            conv_direct_vec(m, &cs.params, &prev_out, cs.weights, out.buf);
                        }
                    }
                    if let Some(bn) = cs.bn {
                        normalize_vec(m, out.buf, bn.mean, bn.var, cs.params.out_c, spatial);
                        scale_bias_vec(m, out.buf, bn.scales, cs.params.out_c, spatial);
                    }
                    add_bias_vec(m, out.buf, cs.bias, cs.params.out_c, spatial);
                    activate_vec(m, out.buf, out.shape.len(), cs.activation);
                }
                LayerKind::Depthwise(dw) => {
                    mnk = None;
                    algo = None;
                    flops = depthwise_flops(&dw.params);
                    let spatial = out.shape.h * out.shape.w;
                    conv_depthwise_vec(m, &dw.params, &prev_out, dw.weights, out.buf);
                    if let Some(bn) = dw.bn {
                        normalize_vec(m, out.buf, bn.mean, bn.var, out.shape.c, spatial);
                        scale_bias_vec(m, out.buf, bn.scales, out.shape.c, spatial);
                    }
                    add_bias_vec(m, out.buf, dw.bias, out.shape.c, spatial);
                    activate_vec(m, out.buf, out.shape.len(), dw.activation);
                }
                LayerKind::Pool(p) => {
                    mnk = None;
                    algo = None;
                    flops = (out.shape.len() * p.size * p.size) as u64;
                    let p = *p;
                    maxpool_vec(m, &p, &prev_out, &out);
                }
                LayerKind::Upsample => {
                    mnk = None;
                    algo = None;
                    flops = 0;
                    upsample2_vec(m, &prev_out, &out);
                }
                LayerKind::Avgpool => {
                    mnk = None;
                    algo = None;
                    flops = prev_out.shape.len() as u64;
                    global_avgpool_vec(m, &prev_out, &out);
                }
                LayerKind::Route(srcs) => {
                    mnk = None;
                    algo = None;
                    flops = 0;
                    let srcs = srcs.clone();
                    let mut off = 0usize;
                    for s in srcs {
                        let src = self.layers[s].out;
                        copy_vec(m, src.buf, 0, out.buf, off, src.shape.len());
                        off += src.shape.len();
                    }
                }
                LayerKind::Shortcut(from, act) => {
                    mnk = None;
                    algo = None;
                    flops = out.shape.len() as u64;
                    let (from, act) = (*from, *act);
                    let from_out = self.layers[from].out;
                    copy_vec(m, prev_out.buf, 0, out.buf, 0, out.shape.len());
                    add_inplace_vec(m, from_out.buf, out.buf, out.shape.len());
                    activate_vec(m, out.buf, out.shape.len(), act);
                }
                LayerKind::Yolo => {
                    mnk = None;
                    algo = None;
                    flops = 0;
                    copy_vec(m, prev_out.buf, 0, out.buf, 0, out.shape.len());
                }
                LayerKind::Fc(fc) => {
                    mnk = Some((fc.outputs, 1, fc.inputs));
                    algo = None;
                    flops = 2 * (fc.outputs * fc.inputs) as u64;
                    fully_connected_vec(m, fc.w, prev_out.buf, out.buf, fc.outputs, fc.inputs);
                    add_inplace_vec(m, fc.bias, out.buf, fc.outputs);
                    activate_vec(m, out.buf, fc.outputs, fc.activation);
                }
                LayerKind::Softmax => {
                    mnk = None;
                    algo = None;
                    flops = 25 * out.shape.len() as u64;
                    copy_vec(m, prev_out.buf, 0, out.buf, 0, out.shape.len());
                    softmax_vec(m, out.buf, out.shape.len());
                }
            }
            m.layer_end();
            let rec = m.layers().last().expect("layer_end closed this layer's record");
            let report = LayerReport::from_record(rec, flops, mnk, algo, out.shape);
            if lva_trace::enabled() {
                layer_span.set("index", i as u64);
                layer_span.set("desc", report.desc.as_str());
                layer_span.set("cycles", report.cycles);
                layer_span.set("flops", flops);
                layer_span.set("flops_per_cycle", report.flops_per_cycle());
                layer_span.set("avg_vlen_bits", report.avg_vlen_bits);
                layer_span.set("stall_cycles", report.stalls.total());
            }
            drop(layer_span);
            reports.push(report);
        }
        let report = NetReport {
            layers: reports,
            cycles: m.cycles(),
            phases: m.phases.clone(),
            vpu: m.stats,
            mem: m.sys.stats(),
            stalls: m.stalls.since(&run_stalls0),
        };
        if lva_trace::enabled() {
            net_span.set("layers", report.layers.len() as u64);
            net_span.set("cycles", report.cycles - run_t0);
            net_span.set("flops", report.flops());
            net_span.set("avg_vlen_bits", report.vpu.avg_vlen_bits());
        }
        report
    }

    /// The final output tensor.
    pub fn output(&self) -> Tensor {
        self.layers.last().expect("non-empty network").out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{resnet50, vgg16, yolov3, yolov3_tiny};
    use lva_isa::MachineConfig;
    use lva_kernels::depthwise::conv_depthwise_ref;
    use lva_kernels::reference as href;
    use lva_tensor::approx_eq;

    fn build_and_run(
        specs: &[LayerSpec],
        input_shape: Shape,
        policy: ConvPolicy,
        vlen: usize,
        sve: bool,
    ) -> (NetReport, Vec<f32>) {
        let mut m = Machine::new(if sve {
            MachineConfig::sve_gem5(vlen, 1 << 20)
        } else {
            MachineConfig::rvv_gem5(vlen, 8, 1 << 20)
        });
        let mut net = Network::build(&mut m, specs, input_shape, policy, 7);
        m.reset_timing();
        let image = host_random(input_shape.len(), 99);
        let rep = net.run(&mut m, &image);
        let out = net.output().to_host(&m);
        (rep, out)
    }

    /// Host reference execution of a spec list (single path, CHW).
    fn reference_run(
        specs: &[LayerSpec],
        input_shape: Shape,
        seed: u64,
        image: &[f32],
    ) -> Vec<f32> {
        let shapes = walk_shapes(specs, input_shape);
        let mut outs: Vec<Vec<f32>> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let prev: &[f32] = if i == 0 { image } else { &outs[i - 1] };
            let prev_shape = if i == 0 { input_shape } else { shapes[i - 1] };
            let lseed = seed.wrapping_add(1 + i as u64);
            let out = match spec {
                LayerSpec::Conv { filters, size, stride, batch_norm, activation } => {
                    let p = ConvParams {
                        in_c: prev_shape.c,
                        in_h: prev_shape.h,
                        in_w: prev_shape.w,
                        out_c: *filters,
                        k: *size,
                        stride: *stride,
                        pad: size / 2,
                    };
                    let (mm, _, kk) = p.gemm_mnk();
                    let w = he_scaled(mm * kk, kk, lseed);
                    let bias = host_random(*filters, lseed ^ 0xb1a5);
                    let mut x = href::conv_direct_ref(&p, prev, &w);
                    let spatial = shapes[i].h * shapes[i].w;
                    if *batch_norm {
                        let mean = host_random(*filters, lseed ^ 0x3ea);
                        let var: Vec<f32> = host_random(*filters, lseed ^ 0x7a8)
                            .iter()
                            .map(|v| v.abs() + 0.5)
                            .collect();
                        let scales = host_random(*filters, lseed ^ 0x5ca);
                        href::normalize_ref(&mut x, &mean, &var, *filters, spatial);
                        href::scale_bias_ref(&mut x, &scales, *filters, spatial);
                    }
                    href::add_bias_ref(&mut x, &bias, *filters, spatial);
                    href::activate_ref(&mut x, *activation);
                    x
                }
                LayerSpec::Depthwise { size, stride, batch_norm, activation } => {
                    let p =
                        depthwise_params(prev_shape.c, prev_shape.h, prev_shape.w, *size, *stride);
                    let w = he_scaled(prev_shape.c * size * size, size * size, lseed);
                    let bias = host_random(prev_shape.c, lseed ^ 0xb1a5);
                    let mut x = conv_depthwise_ref(&p, prev, &w);
                    let spatial = shapes[i].h * shapes[i].w;
                    if *batch_norm {
                        let mean = host_random(prev_shape.c, lseed ^ 0x3ea);
                        let var: Vec<f32> = host_random(prev_shape.c, lseed ^ 0x7a8)
                            .iter()
                            .map(|v| v.abs() + 0.5)
                            .collect();
                        let scales = host_random(prev_shape.c, lseed ^ 0x5ca);
                        href::normalize_ref(&mut x, &mean, &var, prev_shape.c, spatial);
                        href::scale_bias_ref(&mut x, &scales, prev_shape.c, spatial);
                    }
                    href::add_bias_ref(&mut x, &bias, prev_shape.c, spatial);
                    href::activate_ref(&mut x, *activation);
                    x
                }
                LayerSpec::Maxpool { size, stride } => href::maxpool_ref(
                    prev,
                    prev_shape.c,
                    prev_shape.h,
                    prev_shape.w,
                    *size,
                    *stride,
                    size - 1,
                ),
                LayerSpec::Upsample => {
                    href::upsample2_ref(prev, prev_shape.c, prev_shape.h, prev_shape.w)
                }
                LayerSpec::Route { layers } => {
                    let mut v = Vec::new();
                    for &x in layers {
                        v.extend_from_slice(&outs[resolve(x, i).unwrap()]);
                    }
                    v
                }
                LayerSpec::Shortcut { from, activation } => {
                    let f = &outs[resolve(*from, i).unwrap()];
                    let mut x: Vec<f32> = prev.iter().zip(f).map(|(a, b)| a + b).collect();
                    href::activate_ref(&mut x, *activation);
                    x
                }
                LayerSpec::Yolo | LayerSpec::Dropout | LayerSpec::Cost => prev.to_vec(),
                LayerSpec::Avgpool => {
                    let spatial = prev_shape.h * prev_shape.w;
                    (0..prev_shape.c)
                        .map(|ci| {
                            prev[ci * spatial..(ci + 1) * spatial].iter().sum::<f32>()
                                / spatial as f32
                        })
                        .collect()
                }
                LayerSpec::Connected { outputs, activation } => {
                    let inputs = prev_shape.len();
                    let w = he_scaled(outputs * inputs, inputs, lseed);
                    let bias = host_random(*outputs, lseed ^ 0xb1a5);
                    let mut x = href::fc_ref(&w, prev, *outputs, inputs);
                    for (v, b) in x.iter_mut().zip(&bias) {
                        *v += b;
                    }
                    href::activate_ref(&mut x, *activation);
                    x
                }
                LayerSpec::Softmax => href::softmax_ref(prev),
            };
            outs.push(out);
        }
        outs.pop().unwrap()
    }

    #[test]
    fn tiny_yolo_matches_reference_gemm() {
        let (specs, shape) = yolov3_tiny(32);
        let image = host_random(shape.len(), 99);
        let want = reference_run(&specs, shape, 7, &image);
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        let (rep, got) = build_and_run(&specs, shape, policy, 1024, false);
        assert!(approx_eq(&got, &want, 2e-2, 2e-2), "output mismatch");
        assert_eq!(rep.layers.len(), specs.len());
        assert!(rep.cycles > 0);
    }

    #[test]
    fn tiny_yolo_matches_reference_winograd() {
        let (specs, shape) = yolov3_tiny(32);
        let image = host_random(shape.len(), 99);
        let want = reference_run(&specs, shape, 7, &image);
        let policy = ConvPolicy::winograd_default(GemmVariant::opt3());
        let (rep, got) = build_and_run(&specs, shape, policy, 512, true);
        assert!(approx_eq(&got, &want, 5e-2, 5e-2), "output mismatch (winograd)");
        let wino_layers = rep.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Winograd)).count();
        assert!(wino_layers >= 8, "most tiny convs are 3x3 s1: {wino_layers}");
    }

    #[test]
    fn yolov3_prefix_runs_and_counts_convs() {
        let (specs, _) = yolov3(608);
        // First 20 layers at reduced scale (96 = multiple of 32).
        let (_, shape) = yolov3(96);
        let prefix = &specs[..20];
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        let image = host_random(shape.len(), 1);
        let want = reference_run(prefix, shape, 7, &image);
        let (rep, got) = build_and_run(prefix, shape, policy, 2048, false);
        assert!(approx_eq(&got, &want, 5e-2, 5e-2));
        let convs = rep.layers.iter().filter(|l| l.mnk.is_some()).count();
        assert_eq!(convs, 15);
    }

    #[test]
    fn vgg16_small_matches_reference() {
        let (specs, shape) = vgg16(32);
        let image = host_random(shape.len(), 99);
        let want = reference_run(&specs, shape, 7, &image);
        let policy = ConvPolicy::winograd_default(GemmVariant::opt3());
        let (rep, got) = build_and_run(&specs, shape, policy, 2048, true);
        // Softmax output: compare with a tight absolute tolerance.
        assert!(approx_eq(&got, &want, 5e-2, 1e-3), "vgg16 output mismatch");
        assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert_eq!(rep.layers.len(), 25);
    }

    #[test]
    fn gemm_fraction_dominates_on_yolo_prefix() {
        // §II-B: GEMM consumes ~93% of compute in YOLOv3 inference.
        let (specs, _) = yolov3(608);
        let (_, shape) = yolov3(96);
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        let (rep, _) = build_and_run(&specs[..20], shape, policy, 512, false);
        let gemm = rep.phases.get(lva_isa::KernelPhase::Gemm);
        assert!(gemm * 2 > rep.cycles, "GEMM should dominate: {} of {}", gemm, rep.cycles);
    }

    #[test]
    fn direct_1x1_policy_matches_reference() {
        let (specs, shape) = yolov3_tiny(32);
        let image = host_random(shape.len(), 99);
        let want = reference_run(&specs, shape, 7, &image);
        let policy = ConvPolicy { direct_1x1: true, ..ConvPolicy::gemm_only(GemmVariant::opt3()) };
        let (rep, got) = build_and_run(&specs, shape, policy, 1024, false);
        assert!(approx_eq(&got, &want, 2e-2, 2e-2), "direct-1x1 output mismatch");
        let direct_layers = rep.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Direct)).count();
        assert!(direct_layers >= 3, "tiny has several 1x1 convs: {direct_layers}");
    }

    #[test]
    fn mobilenet_matches_reference_end_to_end() {
        let (specs, shape) = crate::models::mobilenet_v1(32);
        let image = host_random(shape.len(), 99);
        let want = reference_run(&specs, shape, 7, &image);
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        let (rep, got) = build_and_run(&specs, shape, policy, 1024, false);
        assert!(approx_eq(&got, &want, 5e-2, 1e-3), "mobilenet output mismatch");
        assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let dws = rep.layers.iter().filter(|l| l.desc.starts_with("dw")).count();
        assert_eq!(dws, 13);
    }

    #[test]
    fn resnet50_matches_reference_end_to_end() {
        let (specs, shape) = resnet50(32);
        let image = host_random(shape.len(), 99);
        let want = reference_run(&specs, shape, 7, &image);
        let policy = ConvPolicy::winograd_default(GemmVariant::opt3());
        let (rep, got) = build_and_run(&specs, shape, policy, 1024, true);
        assert!(approx_eq(&got, &want, 5e-2, 1e-3), "resnet output mismatch");
        assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-4, "softmax normalizes");
        // Bottleneck 3x3 cores run Winograd; the 1x1s run GEMM.
        let wino = rep.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Winograd)).count();
        assert!(wino >= 10, "expected the 3x3 cores on Winograd: {wino}");
    }

    #[test]
    fn run_emits_layer_spans_when_traced() {
        let (specs, shape) = yolov3_tiny(32);
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        lva_trace::enable_to_memory();
        let (rep, _) = build_and_run(&specs, shape, policy, 1024, false);
        let lines = lva_trace::take_memory();
        lva_trace::disable();
        // Tracing is process-global, so sibling tests may add lines; only
        // assert lower bounds and per-line shape.
        let layer_lines: Vec<&String> =
            lines.iter().filter(|l| l.contains(r#""name":"layer""#)).collect();
        assert!(
            layer_lines.len() >= specs.len(),
            "one span per layer: {} < {}",
            layer_lines.len(),
            specs.len()
        );
        assert!(lines.iter().any(|l| l.contains(r#""name":"network""#)));
        assert!(lines.iter().any(|l| l.contains(r#""name":"gemm""#)), "phase spans nest inside");
        for l in &layer_lines {
            assert!(l.contains(r#""cycles""#) && l.contains(r#""avg_vlen_bits""#), "{l}");
        }
        // Per-layer stall deltas cover the whole run exactly.
        assert_eq!(rep.stalls.attributed(), rep.stalls.total());
        let per_layer: u64 = rep.layers.iter().map(|l| l.stalls.total()).sum();
        assert_eq!(per_layer, rep.stalls.total());
    }

    #[test]
    fn conv_params_list_matches_table4_at_608() {
        let (specs, shape) = yolov3(608);
        let convs = conv_params_list(&specs, shape);
        assert_eq!(convs.len(), 75);
        let mnks: Vec<(usize, usize, usize)> = convs.iter().map(|(_, p)| p.gemm_mnk()).collect();
        // The 14 discrete rows of Table IV must all appear.
        for want in [
            (32, 369664, 27),
            (64, 92416, 288),
            (32, 92416, 64),
            (128, 23104, 576),
            (64, 23104, 128),
            (256, 5776, 1152),
            (128, 5776, 256),
            (256, 1444, 512),
            (1024, 361, 4608),
            (512, 361, 1024),
            (255, 361, 1024),
            (256, 1444, 768),
            (512, 1444, 2304),
            (255, 5776, 256),
        ] {
            assert!(mnks.contains(&want), "Table IV row {want:?} missing");
        }
    }
}
