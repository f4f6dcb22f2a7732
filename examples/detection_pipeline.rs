//! End-to-end object-detection pipeline: simulate YOLOv3-tiny inference,
//! decode both detection heads, and run non-maximum suppression — the full
//! path from input image to boxes (with synthetic weights, so the boxes are
//! arbitrary; the point is exercising the complete flow).
//!
//! ```sh
//! cargo run --release --example detection_pipeline
//! ```

use longvec_cnn::nn::{decode_yolo_head, nms, yolov3_tiny, LayerSpec, YOLOV3_ANCHORS};
use longvec_cnn::prelude::*;

fn main() {
    let input_hw = 160;
    let (specs, shape) = yolov3_tiny(input_hw);
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let mut machine = Machine::new(MachineConfig::rvv_gem5(4096, 8, 1 << 20));
    let mut net = Network::build(&mut machine, &specs, shape, policy, 42);
    machine.reset_timing();

    let image = host_random(shape.len(), 1234);
    let report = net.run(&mut machine, &image);
    println!("inference: {} cycles ({} Mflop)\n", report.cycles, report.flops() / 1_000_000);

    // tiny-YOLO heads use anchor triples (3,4,5) and (0,1,2) of the tiny
    // anchor set; the standard YOLOv3 anchors are close enough for a
    // synthetic-weight demo.
    let head_anchors = [
        [YOLOV3_ANCHORS[6], YOLOV3_ANCHORS[7], YOLOV3_ANCHORS[8]],
        [YOLOV3_ANCHORS[3], YOLOV3_ANCHORS[4], YOLOV3_ANCHORS[5]],
    ];
    let mut detections = Vec::new();
    let mut head = 0;
    for (i, l) in report.layers.iter().enumerate() {
        if matches!(net.layers[i].spec, LayerSpec::Yolo) {
            let data = net.layers[i].out.to_host(&machine);
            let dets = decode_yolo_head(&data, l.out_shape, &head_anchors[head], input_hw, 0.5);
            println!(
                "head {head} ({}x{} grid): {} raw detections above threshold",
                l.out_shape.h,
                l.out_shape.w,
                dets.len()
            );
            detections.extend(dets);
            head += 1;
        }
    }
    let kept = nms(detections, 0.45);
    println!("\nafter NMS: {} boxes (top 5):", kept.len());
    for d in kept.iter().take(5) {
        println!(
            "  class {:>2}  score {:.2}  box ({:.2}, {:.2}) {:.2}x{:.2}",
            d.class, d.score, d.x, d.y, d.w, d.h
        );
    }
    println!("\n(synthetic weights: box contents are arbitrary, the pipeline is real)");
}
