//! The paper as one grid. Figs. 6-10, Tables II-III and the §II-B,
//! §VI-B(c) and §VII-A studies are slices of one vector-length x lanes x
//! L2 x algorithm design space. A [`Figure`] names the design points it
//! reads and prints itself from their summaries; [`main`] simulates the
//! union of its figures' points through [`run_sweep`], each distinct point
//! once, and then prints every figure. Each figure binary (`exp-fig6`, …)
//! is [`main`] over its one figure, and `exp-paper` is [`main`] over
//! [`FIGURES`].

use lva_core::experiment::fmt_bytes;
use lva_nn::{ConvAlgo, LayerReport};

use crate::{
    emit, fmt_cycles, fmt_speedup, run_sweep, scaled_input, BlockSizes, ConvPolicy, Dialect,
    Experiment, GemmVariant, HwTarget, ModelId, Opts, RunSummary, Table, Workload, L2_SIZES,
    RVV_VLENS, SVE_VLENS,
};

/// One table or figure of the paper.
pub struct Figure {
    /// The binary that prints this figure alone. The per-run stderr log
    /// tags each grid point with the binaries that read it.
    pub bin: &'static str,
    /// The `--help` headline.
    pub what: &'static str,
    /// The design points the figure reads, in the order `print` takes them.
    pub points: fn(&Opts) -> Vec<Experiment>,
    /// Print the figure, and save its files, from the summaries of
    /// `points`.
    pub print: fn(&Opts, &[&RunSummary]),
}

/// Every figure, in the order `exp-paper` prints them.
pub const FIGURES: [Figure; 11] =
    [BREAKDOWN, TABLE2, TABLE3, FIG6, FIG7, LANES, FIG8, WINOGRAD_A64FX, FIG9, FIG10, RESNET];

/// The union of some figures' design points.
struct Grid {
    /// Each distinct point once, in the order first asked for, named by
    /// the binaries of the figures that read it.
    points: Vec<(String, Experiment)>,
    /// Per figure, the grid index of each point it asked for.
    slots: Vec<Vec<usize>>,
}

impl Grid {
    /// Merge the points `figures` ask for under `opts`. Two requests are
    /// one point when their experiments are equal.
    fn new(figures: &[Figure], opts: &Opts) -> Grid {
        let mut points: Vec<(Experiment, Vec<&str>)> = Vec::new();
        let mut slots = Vec::new();
        for f in figures {
            let mut slot = Vec::new();
            for e in (f.points)(opts) {
                let i = points.iter().position(|(p, _)| *p == e).unwrap_or(points.len());
                if i == points.len() {
                    points.push((e, Vec::new()));
                }
                if !points[i].1.contains(&f.bin) {
                    points[i].1.push(f.bin);
                }
                slot.push(i);
            }
            slots.push(slot);
        }
        let points = points.into_iter().map(|(e, bins)| (bins.join("+"), e)).collect();
        Grid { points, slots }
    }
}

/// Parse the experiment flags, simulate the union of `figures`' points
/// once through [`run_sweep`], then print each figure in turn.
pub fn main(figures: &[Figure]) {
    let what: Vec<&str> = figures.iter().map(|f| f.what).collect();
    let opts = Opts::parse(Dialect::Experiment, 4, &what.join("\n"));
    let grid = Grid::new(figures, &opts);
    let runs = run_sweep(&grid.points, opts.jobs, false, false);
    for (f, slots) in figures.iter().zip(&grid.slots) {
        let summaries: Vec<&RunSummary> = slots.iter().map(|&i| &runs[i].summary).collect();
        (f.print)(&opts, &summaries);
    }
}

/// `model`'s network at the `--div` scale: its first `layers` layers
/// unless `--layers` says otherwise, all of them when both are `None`.
fn net(model: ModelId, opts: &Opts, layers: Option<usize>) -> Workload {
    Workload { model, input_hw: scaled_input(model, opts.div), layer_limit: opts.layers.or(layers) }
}

/// The first 20 layers of YOLOv3, the network of Figs. 6-9 and Table III.
fn yolo20(opts: &Opts) -> Workload {
    net(ModelId::Yolov3, opts, Some(20))
}

/// An optimized 3-loop RVV point on [`yolo20`].
fn rvv_opt3(opts: &Opts, vlen_bits: usize, lanes: usize, l2_bytes: usize) -> Experiment {
    Experiment::new(
        HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes },
        ConvPolicy::gemm_only(GemmVariant::opt3()),
        yolo20(opts),
    )
}

/// Every RVV vector length at 8 lanes and 1 MB (Fig. 6, Table III).
fn rvv_vlens(opts: &Opts) -> Vec<Experiment> {
    RVV_VLENS.iter().map(|&vlen| rvv_opt3(opts, vlen, 8, 1 << 20)).collect()
}

/// Every SVE vector length x L2 size, vector length outermost (Figs. 8-10).
fn sve_grid(policy: ConvPolicy, workload: Workload) -> Vec<Experiment> {
    SVE_VLENS
        .iter()
        .flat_map(|&vlen_bits| {
            L2_SIZES.map(|l2_bytes| {
                Experiment::new(HwTarget::SveGem5 { vlen_bits, l2_bytes }, policy, workload)
            })
        })
        .collect()
}

/// Figs. 7-10's table: one row per vector length x L2 size with cycles,
/// the speedup over `base` cycles (each vector length's 1 MB point when
/// `None`) and the L2 miss rate.
fn vl_l2_table(
    title: String,
    vlens: &[usize],
    speedup: &str,
    base: Option<u64>,
    runs: &[&RunSummary],
) -> Table {
    let mut table = Table::new(title, &["vlen_bits", "l2", "cycles", speedup, "l2_miss_%"]);
    for (vlen, row) in vlens.iter().zip(runs.chunks(L2_SIZES.len())) {
        let base = base.unwrap_or(row[0].cycles);
        for (&l2, s) in L2_SIZES.iter().zip(row) {
            table.row(vec![
                vlen.to_string(),
                fmt_bytes(l2),
                fmt_cycles(s.cycles),
                fmt_speedup(base as f64 / s.cycles as f64),
                format!("{:.1}", 100.0 * s.l2_miss_rate),
            ]);
        }
    }
    table
}

/// `model`'s full network on A64FX under `policy`.
fn a64fx(opts: &Opts, model: ModelId, policy: ConvPolicy) -> Experiment {
    Experiment::new(HwTarget::A64fx, policy, net(model, opts, None))
}

/// Each model on A64FX with the optimized 6-loop im2col+GEMM, then with
/// `winograd` (§VII-A, the algorithm-mix study).
fn a64fx_pairs(opts: &Opts, models: &[ModelId], winograd: ConvPolicy) -> Vec<Experiment> {
    let gemm = ConvPolicy::gemm_only(GemmVariant::opt6());
    models.iter().flat_map(|&m| [gemm, winograd].map(|p| a64fx(opts, m, p))).collect()
}

/// §II-B — execution-time breakdown of CNN inference kernels.
///
/// The paper profiles YOLOv3 on A64FX and finds the convolutional layer
/// dominates, with GEMM consuming 93.4% of the computation time (setup
/// excluded). This figure reproduces the breakdown from the simulator's
/// kernel-phase attribution.
pub const BREAKDOWN: Figure = Figure {
    bin: "exp-breakdown",
    what: "§II-B: kernel execution-time breakdown",
    points: |opts| {
        // The §II-B profile is the un-tuned Darknet build: the naive GEMM.
        let builds = [GemmVariant::Naive, GemmVariant::opt6()];
        builds.map(|g| a64fx(opts, ModelId::Yolov3, ConvPolicy::gemm_only(g))).into()
    },
    print: |opts, runs| {
        let yolo = net(ModelId::Yolov3, opts, None).describe();
        let builds = ["naive darknet build (as profiled in §II-B)", "optimized 6-loop build"];
        for (name, s) in builds.iter().zip(runs) {
            let mut table = Table::new(
                format!("Kernel breakdown — {name}, {yolo}"),
                &["kernel", "cycles", "share_%"],
            );
            for (phase, cyc) in s.report.phases.breakdown() {
                table.row(vec![
                    phase.name().into(),
                    fmt_cycles(cyc),
                    format!("{:.1}", 100.0 * cyc as f64 / s.cycles as f64),
                ]);
            }
            table.print();
            println!();
        }
        println!("paper: GEMM = 93.4% of computation time in the profiled build");
    },
};

/// Table II — relative performance of the BLIS-like optimized 6-loop GEMM
/// versus the optimized 3-loop GEMM on RISC-V Vector @ gem5 (YOLOv3 first 4
/// layers, 1 MB L2, 8 lanes), over the paper's six block-size choices.
///
/// Paper result: the 6-loop implementation never wins on RVV — normalized
/// performance 0.90..0.98, best at blocks 16x512x128 — because the
/// decoupled VPU reads the L2 directly (L1 blocking buys nothing) and RVV
/// has no prefetch instructions to hide the packing latency (§VI-A).
pub const TABLE2: Figure = Figure {
    bin: "exp-table2",
    what: "Table II: 6-loop vs 3-loop block-size sweep on RVV",
    points: |opts| {
        let hw = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 };
        let yolo4 = net(ModelId::Yolov3, opts, Some(4));
        let opt6 = BlockSizes::TABLE2_SWEEP.map(|blocks| GemmVariant::Opt6 { unroll: 16, blocks });
        let gemms = std::iter::once(GemmVariant::opt3()).chain(opt6);
        gemms.map(|g| Experiment::new(hw, ConvPolicy::gemm_only(g), yolo4)).collect()
    },
    print: |opts, runs| {
        let (opt3, yolo4) = (runs[0], net(ModelId::Yolov3, opts, Some(4)));
        let paper = ["0.90", "0.95", "0.98", "0.96", "0.97", "0.95"];
        let mut table = Table::new(
            format!("Table II — 6-loop vs 3-loop on RVV, {}", yolo4.describe()),
            &["blockM x blockN x blockK", "cycles_6loop", "normalized_perf_vs_3loop", "paper"],
        );
        for ((blocks, s), paper) in BlockSizes::TABLE2_SWEEP.iter().zip(&runs[1..]).zip(paper) {
            table.row(vec![
                format!("{}x{}x{}", blocks.m, blocks.n, blocks.k),
                fmt_cycles(s.cycles),
                format!("{:.2}", opt3.cycles as f64 / s.cycles as f64),
                paper.to_string(),
            ]);
        }
        println!(
            "\n3-loop reference: {} cycles. paper: 6-loop at best 0.98 of 3-loop on RVV\n",
            fmt_cycles(opt3.cycles)
        );
        emit(&table, "table2_blocksizes", opts);
    },
};

/// Table III — average consumed vector length and L2 cache miss rate per
/// configured vector length, RISC-V Vector @ gem5, YOLOv3 first 20 layers,
/// 1 MB L2, 8 lanes.
///
/// Paper result: the configured length is almost fully consumed (tail
/// effects only), while the L2 miss rate climbs from 32% (512-bit) to 79%
/// (16384-bit) — the mechanism behind Fig. 6's saturation. Note that at
/// reduced input scale (`--div`) the deepest layers' rows are shorter than
/// the longest vectors, so the consumed average drops below the paper's
/// values; run with `--div 1` for paper-size tails.
pub const TABLE3: Figure = Figure {
    bin: "exp-table3",
    what: "Table III: consumed vector length and L2 miss rate on RVV",
    points: rvv_vlens,
    print: |opts, runs| {
        let mut table = Table::new(
            format!("Table III — avg consumed VL and L2 miss rate, {}", yolo20(opts).describe()),
            &["vlen_bits", "avg_consumed_vlen_bits", "l2_miss_%", "paper_l2_miss_%"],
        );
        let paper_miss = [32.0, 36.0, 39.0, 42.0, 61.0, 79.0];
        for ((vlen, s), paper) in RVV_VLENS.iter().zip(runs).zip(paper_miss) {
            table.row(vec![
                vlen.to_string(),
                format!("{:.1}", s.avg_vlen_bits),
                format!("{:.1}", 100.0 * s.l2_miss_rate),
                format!("{paper:.0}"),
            ]);
        }
        emit(&table, "table3_avg_vl_miss", opts);
    },
};

/// Figure 6 — impact of the vector length on RISC-V Vector @ gem5 for the
/// first 20 layers of YOLOv3, at a constant 1 MB L2 and 8 vector lanes.
///
/// Paper result: performance improves ~2.5x from 512-bit to 16384-bit
/// vector lengths and effectively saturates beyond 8192 bits, because the
/// L2 miss rate climbs with the vector length (Table III).
pub const FIG6: Figure = Figure {
    bin: "exp-fig6",
    what: "Fig. 6: RVV vector-length sweep, YOLOv3 first 20 layers",
    points: rvv_vlens,
    print: |opts, runs| {
        let mut table = Table::new(
            format!("Fig. 6 — vector length vs performance, {}", yolo20(opts).describe()),
            &["vlen_bits", "cycles", "speedup_vs_512", "avg_vlen_bits", "l2_miss_%"],
        );
        for (vlen, s) in RVV_VLENS.iter().zip(runs) {
            table.row(vec![
                vlen.to_string(),
                fmt_cycles(s.cycles),
                fmt_speedup(runs[0].cycles as f64 / s.cycles as f64),
                format!("{:.1}", s.avg_vlen_bits),
                format!("{:.1}", 100.0 * s.l2_miss_rate),
            ]);
        }
        println!("\npaper: 2.5x from 512b to 16384b, saturating beyond 8192b\n");
        emit(&table, "fig6_rvv_vlen", opts);
    },
};

/// Figure 7 — impact of the L2 cache size (1 MB .. 256 MB) for each vector
/// length on RISC-V Vector @ gem5, YOLOv3 first 20 layers, 8 lanes.
///
/// Paper result: growing the L2 from 1 MB to 256 MB improves performance by
/// ~1.5x for vector lengths up to 4096 bits and by 1.7x-1.9x for the
/// 8192/16384-bit lengths; with a 256 MB L2, 16384-bit is only ~5% faster
/// than 8192-bit and both miss rates drop to ~2.5%.
pub const FIG7: Figure = Figure {
    bin: "exp-fig7",
    what: "Fig. 7: RVV L2-size sweep per vector length",
    points: |opts| {
        RVV_VLENS.iter().flat_map(|&vlen| L2_SIZES.map(|l2| rvv_opt3(opts, vlen, 8, l2))).collect()
    },
    print: |opts, runs| {
        let title = format!("Fig. 7 — L2 size vs performance per VL, {}", yolo20(opts).describe());
        let table = vl_l2_table(title, &RVV_VLENS, "speedup_vs_1MB", None, runs);
        println!("\npaper: 1.5x (<=4096b), 1.7-1.9x (8192/16384b) from 1MB to 256MB\n");
        emit(&table, "fig7_rvv_l2", opts);
    },
};

/// The vector lengths and lane counts of the lanes study.
const LANE_VLENS: [usize; 3] = [512, 2048, 8192];
const LANES_SWEPT: [usize; 3] = [2, 4, 8];

/// §VI-B(c) — impact of the number of vector lanes (2..8) per vector
/// length on RISC-V Vector @ gem5, YOLOv3 first 20 layers, 1 MB L2.
///
/// Paper result: 2 -> 8 lanes buys ~1.25x at 8192-bit; at 512-bit,
/// performance scales from 2 to 4 lanes and saturates beyond 4 —
/// additional lanes benefit longer vectors.
pub const LANES: Figure = Figure {
    bin: "exp-lanes",
    what: "Lanes sweep: RVV vector lanes 2..8 per vector length",
    points: |opts| {
        LANE_VLENS
            .iter()
            .flat_map(|&vlen| LANES_SWEPT.map(|lanes| rvv_opt3(opts, vlen, lanes, 1 << 20)))
            .collect()
    },
    print: |opts, runs| {
        let mut table = Table::new(
            format!("Vector lanes vs performance per VL, {}", yolo20(opts).describe()),
            &["vlen_bits", "lanes", "cycles", "speedup_vs_2_lanes"],
        );
        for (vlen, row) in LANE_VLENS.iter().zip(runs.chunks(LANES_SWEPT.len())) {
            for (lanes, s) in LANES_SWEPT.iter().zip(row) {
                table.row(vec![
                    vlen.to_string(),
                    lanes.to_string(),
                    fmt_cycles(s.cycles),
                    fmt_speedup(row[0].cycles as f64 / s.cycles as f64),
                ]);
            }
        }
        println!("\npaper: ~1.25x at 8192b from 2->8 lanes; 512b saturates beyond 4 lanes\n");
        emit(&table, "lanes_rvv", opts);
    },
};

/// Figure 8 — impact of vector length (512..2048-bit) and L2 size
/// (1 MB..256 MB) on ARM-SVE @ gem5, YOLOv3 first 20 layers, optimized
/// im2col+GEMM (6-loop: §VI-C found it 15% ahead of 3-loop on SVE@gem5).
///
/// Paper result: at 1 MB, 512 -> 2048 bits improves performance by 1.34x;
/// at 2048-bit, 1 MB -> 256 MB improves it by 1.6x.
pub const FIG8: Figure = Figure {
    bin: "exp-fig8",
    what: "Fig. 8: SVE@gem5 vector-length x L2-size sweep",
    points: |opts| sve_grid(ConvPolicy::gemm_only(GemmVariant::opt6()), yolo20(opts)),
    print: |opts, runs| {
        let title = format!("Fig. 8 — VL x L2 on ARM-SVE @ gem5, {}", yolo20(opts).describe());
        let base = Some(runs[0].cycles);
        let table = vl_l2_table(title, &SVE_VLENS, "speedup_vs_512b_1MB", base, runs);
        println!("\npaper: 1.34x from 512->2048b at 1MB; 1.6x from 1->256MB at 2048b\n");
        emit(&table, "fig8_sve_vl_l2", opts);
    },
};

/// The models of the §VII-A study in row order, with their names and the
/// paper's whole-network Winograd speedup.
const WINOGRAD_MODELS: [(ModelId, &str, &str); 2] =
    [(ModelId::Vgg16, "VGG16", "1.5x"), (ModelId::Yolov3, "YOLOv3", "1.35x")];

/// §VII-A — Winograd vs optimized im2col+GEMM on the A64FX profile.
///
/// Paper results (weight transform excluded — performed offline):
/// * VGG16 (all convs are 3x3 stride-1): Winograd is 1.5x faster overall;
/// * YOLOv3 (38 of 75 convs are 3x3): 1.35x faster overall;
/// * the 3x3 stride-1 layers alone: 2.4x faster;
/// * the 3x3 stride-2 layers: 1.4x *slower* with Winograd;
/// * 1x1 layers default to im2col+GEMM either way.
pub const WINOGRAD_A64FX: Figure = Figure {
    bin: "exp-winograd-a64fx",
    what: "§VII-A: Winograd vs im2col+GEMM on A64FX",
    points: |opts| {
        // Winograd everywhere it applies, including stride-2 (the paper
        // measured stride-2 separately before excluding it from §VII-B).
        let mut wino = ConvPolicy::winograd_default(GemmVariant::opt6());
        wino.winograd_stride2 = true;
        a64fx_pairs(opts, &WINOGRAD_MODELS.map(|(model, ..)| model), wino)
    },
    print: print_winograd_a64fx,
};

/// Sum cycles of conv layers selected by a predicate.
fn conv_cycles(s: &RunSummary, pred: impl Fn(&LayerReport) -> bool) -> u64 {
    s.report.layers.iter().filter(|l| l.mnk.is_some() && pred(l)).map(|l| l.cycles).sum()
}

fn print_winograd_a64fx(opts: &Opts, runs: &[&RunSummary]) {
    let mut table = Table::new(
        "Winograd vs optimized im2col+GEMM on A64FX (weight transform offline)",
        &["workload", "comparison", "measured", "paper"],
    );
    for (&(model, name, paper_net), pair) in WINOGRAD_MODELS.iter().zip(runs.chunks(2)) {
        let (gemm, wino) = (pair[0], pair[1]);
        let workload = net(model, opts, None);

        // Whole-network conv time (the paper's default policy: stride-1
        // Winograd only -> charge stride-2 layers at their GEMM cost).
        let is3x3s1 = |l: &LayerReport| l.desc.contains("3x3/1");
        let is3x3s2 = |l: &LayerReport| l.desc.contains("3x3/2");
        let g_all = conv_cycles(gemm, |_| true);
        let w_s1 = conv_cycles(wino, is3x3s1);
        let g_s1 = conv_cycles(gemm, is3x3s1);
        let w_s2 = conv_cycles(wino, is3x3s2);
        let g_s2 = conv_cycles(gemm, is3x3s2);
        let other_g = g_all - g_s1 - g_s2;
        // Default policy total: Winograd s1 + GEMM s2 + GEMM rest.
        let default_total = w_s1 + g_s2 + other_g;

        table.row(vec![
            workload.describe(),
            format!("{name} conv total: winograd policy vs im2col+GEMM"),
            fmt_speedup(g_all as f64 / default_total as f64),
            paper_net.into(),
        ]);
        table.row(vec![
            workload.describe(),
            "3x3 stride-1 layers: winograd vs gemm".into(),
            fmt_speedup(g_s1 as f64 / w_s1 as f64),
            "2.4x".into(),
        ]);
        if g_s2 > 0 {
            table.row(vec![
                workload.describe(),
                "3x3 stride-2 layers: winograd vs gemm".into(),
                fmt_speedup(g_s2 as f64 / w_s2 as f64),
                "0.71x (1.4x slower)".into(),
            ]);
        }
        // Count algorithm selection for the record.
        let wino_count =
            wino.report.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Winograd)).count();
        eprintln!("   [{name}: {wino_count} layers ran Winograd]");
    }
    emit(&table, "winograd_a64fx", opts);
}

/// Figure 9 — impact of vector length (512..2048-bit) and L2 size
/// (1 MB..256 MB) with Winograd on ARM-SVE @ gem5, for the first 20 layers
/// of YOLOv3 (Winograd on the 3x3 stride-1 layers, optimized im2col+GEMM
/// elsewhere — the §VII-B selection rule).
///
/// Paper result: ~1.4x from 512 to 2048 bits at 1 MB; ~1.75x from 1 MB to
/// 256 MB across vector lengths (several YOLOv3 layers still run GEMM,
/// which keeps the cache appetite higher than VGG16's, cf. Fig. 10).
pub const FIG9: Figure = Figure {
    bin: "exp-fig9",
    what: "Fig. 9: Winograd VL x L2 sweep, YOLOv3 first 20 layers",
    points: |opts| sve_grid(ConvPolicy::winograd_default(GemmVariant::opt6()), yolo20(opts)),
    print: |opts, runs| {
        let title = format!("Fig. 9 — Winograd VL x L2 on SVE @ gem5, {}", yolo20(opts).describe());
        let base = Some(runs[0].cycles);
        let table = vl_l2_table(title, &SVE_VLENS, "speedup_vs_512b_1MB", base, runs);
        println!("\npaper: 1.4x from 512->2048b at 1MB; 1.75x from 1->256MB\n");
        emit(&table, "fig9_winograd_yolo", opts);
    },
};

/// Figure 10 — impact of vector length and L2 size with Winograd on
/// ARM-SVE @ gem5 for VGG16 (all 13 convolutional layers are 3x3 stride-1,
/// so every one of them runs Winograd).
///
/// Paper results: ~1.4x from 512 to 2048 bits at 1 MB; ~1.4x from 1 MB to
/// **64 MB** and flat beyond (Winograd has smaller cache requirements than
/// im2col+GEMM); and Winograd over im2col+GEMM at 1 MB is 1.4x / 1.5x /
/// 1.3x for 512 / 1024 / 2048-bit vectors.
pub const FIG10: Figure = Figure {
    bin: "exp-fig10",
    what: "Fig. 10: Winograd VL x L2 sweep, VGG16",
    points: |opts| {
        let vgg = net(ModelId::Vgg16, opts, None);
        let wino = ConvPolicy::winograd_default(GemmVariant::opt6());
        let gemm = ConvPolicy::gemm_only(GemmVariant::opt6());
        // The grid, then Winograd and im2col+GEMM at 1 MB per vector length.
        let mut points = sve_grid(wino, vgg);
        for vlen_bits in SVE_VLENS {
            let hw = HwTarget::SveGem5 { vlen_bits, l2_bytes: 1 << 20 };
            points.extend([wino, gemm].map(|p| Experiment::new(hw, p, vgg)));
        }
        points
    },
    print: |opts, runs| {
        let (grid, pairs) = runs.split_at(SVE_VLENS.len() * L2_SIZES.len());
        let title = format!(
            "Fig. 10 — Winograd VL x L2 on SVE @ gem5, {}",
            net(ModelId::Vgg16, opts, None).describe()
        );
        let base = Some(grid[0].cycles);
        let table = vl_l2_table(title, &SVE_VLENS, "speedup_vs_512b_1MB", base, grid);
        println!("\npaper: 1.4x VL; 1.4x cache up to 64MB then flat\n");
        emit(&table, "fig10_winograd_vgg16", opts);

        // Winograd vs im2col+GEMM per vector length at 1 MB (§VII-B end).
        let mut cmp = Table::new(
            "VGG16: Winograd vs im2col+GEMM at 1MB L2 per vector length",
            &["vlen_bits", "winograd_cycles", "gemm_cycles", "speedup", "paper"],
        );
        let paper = ["1.4x", "1.5x", "1.3x"];
        for ((vlen, pair), paper) in SVE_VLENS.iter().zip(pairs.chunks(2)).zip(paper) {
            let (w, g) = (pair[0], pair[1]);
            cmp.row(vec![
                vlen.to_string(),
                fmt_cycles(w.cycles),
                fmt_cycles(g.cycles),
                fmt_speedup(g.cycles as f64 / w.cycles as f64),
                paper.into(),
            ]);
        }
        emit(&cmp, "fig10_winograd_vs_gemm", opts);
    },
};

/// The models of the algorithm-mix study, in row order.
const MIX_MODELS: [ModelId; 4] =
    [ModelId::Vgg16, ModelId::Yolov3, ModelId::Resnet50, ModelId::MobilenetV1];

/// Extension — algorithm-mix profiles across network architectures.
///
/// The paper's algorithm-selection conclusion (§VII) is evaluated on
/// YOLOv3 and VGG16. This study adds the ResNet-50-style model and
/// compares how much each architecture gains from the Winograd policy.
/// Although ResNet's *layer count* is 1x1-dominated, its 3x3 bottleneck
/// cores still carry most of the convolution cycles, so the policy gain
/// stays close to VGG16's; YOLOv3 trails because its stride-2 downsample
/// 3x3 layers must stay on GEMM. Algorithm selection is a property of where
/// an architecture spends its cycles, not of how many layers it has.
/// MobileNetV1 is the control: no 3x3 stride-1 convolutions at all (its
/// spatial work is depthwise), so the Winograd policy changes nothing.
pub const RESNET: Figure = Figure {
    bin: "exp-resnet",
    what: "Algorithm-mix profile: Winograd policy gain per architecture",
    points: |opts| {
        a64fx_pairs(opts, &MIX_MODELS, ConvPolicy::winograd_default(GemmVariant::opt6()))
    },
    print: |opts, runs| {
        let mut table = Table::new(
            "Winograd-policy speedup by network architecture (A64FX)",
            &["model", "conv_layers", "winograd_layers", "gemm_cycles", "wino_cycles", "gain"],
        );
        for (model, pair) in MIX_MODELS.iter().zip(runs.chunks(2)) {
            let (gemm, wino) = (pair[0], pair[1]);
            let convs = wino.report.layers.iter().filter(|l| l.algo.is_some()).count();
            let wcount =
                wino.report.layers.iter().filter(|l| l.algo == Some(ConvAlgo::Winograd)).count();
            table.row(vec![
                model.name().into(),
                convs.to_string(),
                wcount.to_string(),
                fmt_cycles(gemm.cycles),
                fmt_cycles(wino.cycles),
                fmt_speedup(gemm.cycles as f64 / wino.cycles as f64),
            ]);
        }
        emit(&table, "resnet_algo_mix", opts);
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(line: &str) -> Opts {
        Opts::try_parse(Dialect::Experiment, 4, line.split_whitespace().map(String::from))
            .expect("valid flags")
    }

    fn figure(bin: &str) -> usize {
        FIGURES.iter().position(|f| f.bin == bin).expect("a figure of the paper")
    }

    #[test]
    fn the_grid_keeps_each_distinct_point_once() {
        let defaults = opts("");
        let grid = Grid::new(&FIGURES, &defaults);
        let asked: Vec<usize> = grid.slots.iter().map(Vec::len).collect();
        assert_eq!(asked, [2, 7, 6, 6, 36, 9, 18, 4, 18, 24, 8]);
        assert_eq!(grid.points.len(), 117);
        for (f, slots) in FIGURES.iter().zip(&grid.slots) {
            for (e, &i) in (f.points)(&defaults).iter().zip(slots) {
                assert_eq!(grid.points[i].1, *e, "{} reads the point it asked for", f.bin);
                assert!(grid.points[i].0.split('+').any(|b| b == f.bin), "{} tags it", f.bin);
            }
        }
        // Equality is structural: stride-2 Winograd on (§VII-A) and off
        // (the algorithm-mix study) stay two VGG16 points.
        let (a, b) =
            (grid.slots[figure("exp-winograd-a64fx")][1], grid.slots[figure("exp-resnet")][1]);
        assert_ne!(a, b);
        for i in [a, b] {
            let e = &grid.points[i].1;
            assert_eq!((e.workload.model, e.policy.winograd), (ModelId::Vgg16, true));
        }
        // `--layers 4` makes Table II's 3-loop reference Fig. 6's 2048-bit point.
        let grid = Grid::new(&FIGURES, &opts("--layers 4"));
        assert_eq!(grid.points.len(), 116);
        assert_eq!(grid.slots[figure("exp-table2")][0], grid.slots[figure("exp-fig6")][2]);
    }
}
