//! YOLO detection post-processing: box decoding and non-maximum
//! suppression.
//!
//! The paper measures kernels, not detections, but a credible inference
//! framework must turn the 255-channel head outputs into boxes. This module
//! implements Darknet's YOLOv3 decoding on the host (it runs once per image
//! over a few thousand values — negligible next to the convolutions, which
//! is also why the paper's §II-B profile ignores it): per anchor
//! `(tx, ty, tw, th, obj, cls...)`, sigmoid the offsets/objectness, apply
//! the anchor priors, filter by objectness, then greedy per-class NMS.

use lva_tensor::Shape;

/// A decoded detection in normalized image coordinates (0..1).
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Box center x/y and width/height, relative to the image.
    pub x: f32,
    pub y: f32,
    pub w: f32,
    pub h: f32,
    /// Objectness score after sigmoid.
    pub objectness: f32,
    /// Best class index and its (objectness-scaled) score.
    pub class: usize,
    pub score: f32,
}

impl Detection {
    /// Intersection-over-union with another box.
    pub fn iou(&self, o: &Detection) -> f32 {
        let half = |v: f32| v / 2.0;
        let x1 = (self.x - half(self.w)).max(o.x - half(o.w));
        let y1 = (self.y - half(self.h)).max(o.y - half(o.h));
        let x2 = (self.x + half(self.w)).min(o.x + half(o.w));
        let y2 = (self.y + half(self.h)).min(o.y + half(o.h));
        let inter = (x2 - x1).max(0.0) * (y2 - y1).max(0.0);
        let union = self.w * self.h + o.w * o.h - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The standard YOLOv3 anchor set (pixels at the 416 reference scale),
/// three per head, ordered like `yolov3.cfg`'s `anchors=` line.
pub const YOLOV3_ANCHORS: [(f32, f32); 9] = [
    (10.0, 13.0),
    (16.0, 30.0),
    (33.0, 23.0),
    (30.0, 61.0),
    (62.0, 45.0),
    (59.0, 119.0),
    (116.0, 90.0),
    (156.0, 198.0),
    (373.0, 326.0),
];

/// Number of classes encoded in a 255-channel head (3 anchors x (5 + 80)).
pub const COCO_CLASSES: usize = 80;

/// Decode one YOLO head output (CHW, `3*(5+classes)` channels) into
/// detections above `obj_threshold`.
///
/// `anchors` are the three (w, h) priors of this head in pixels;
/// `net_input` is the square network input resolution they are relative to.
pub fn decode_yolo_head(
    data: &[f32],
    shape: Shape,
    anchors: &[(f32, f32); 3],
    net_input: usize,
    obj_threshold: f32,
) -> Vec<Detection> {
    let classes = shape.c / 3 - 5;
    assert_eq!(shape.c, 3 * (5 + classes), "not a YOLO head shape");
    assert_eq!(data.len(), shape.len());
    let (gh, gw) = (shape.h, shape.w);
    let at = |ch: usize, y: usize, x: usize| data[(ch * gh + y) * gw + x];
    let mut out = Vec::new();
    for (a, anchor) in anchors.iter().enumerate() {
        let base = a * (5 + classes);
        for y in 0..gh {
            for x in 0..gw {
                let obj = sigmoid(at(base + 4, y, x));
                if obj < obj_threshold {
                    continue;
                }
                let bx = (x as f32 + sigmoid(at(base, y, x))) / gw as f32;
                let by = (y as f32 + sigmoid(at(base + 1, y, x))) / gh as f32;
                let bw = anchor.0 * at(base + 2, y, x).exp() / net_input as f32;
                let bh = anchor.1 * at(base + 3, y, x).exp() / net_input as f32;
                let (mut best_c, mut best_s) = (0usize, f32::MIN);
                for c in 0..classes {
                    let s = sigmoid(at(base + 5 + c, y, x));
                    if s > best_s {
                        best_s = s;
                        best_c = c;
                    }
                }
                out.push(Detection {
                    x: bx,
                    y: by,
                    w: bw,
                    h: bh,
                    objectness: obj,
                    class: best_c,
                    score: obj * best_s,
                });
            }
        }
    }
    out
}

/// Greedy per-class non-maximum suppression: keep the highest-scoring box
/// of each overlapping (IoU > `iou_threshold`) same-class cluster.
pub fn nms(mut dets: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    dets.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
    let mut keep: Vec<Detection> = Vec::new();
    'next: for d in dets {
        for k in &keep {
            if k.class == d.class && k.iou(&d) > iou_threshold {
                continue 'next;
            }
        }
        keep.push(d);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(x: f32, y: f32, w: f32, h: f32, class: usize, score: f32) -> Detection {
        Detection { x, y, w, h, objectness: score, class, score }
    }

    #[test]
    fn iou_basics() {
        let a = boxed(0.5, 0.5, 0.2, 0.2, 0, 1.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6, "self IoU is 1");
        let b = boxed(0.9, 0.9, 0.1, 0.1, 0, 1.0);
        assert_eq!(a.iou(&b), 0.0, "disjoint boxes");
        let c = boxed(0.55, 0.5, 0.2, 0.2, 0, 1.0);
        let i = a.iou(&c);
        assert!(i > 0.4 && i < 0.9, "partial overlap: {i}");
    }

    #[test]
    fn nms_suppresses_same_class_overlaps_only() {
        let dets = vec![
            boxed(0.5, 0.5, 0.2, 0.2, 3, 0.9),
            boxed(0.51, 0.5, 0.2, 0.2, 3, 0.8), // same class, overlapping
            boxed(0.51, 0.5, 0.2, 0.2, 7, 0.7), // other class, overlapping
            boxed(0.1, 0.1, 0.1, 0.1, 3, 0.6),  // same class, far away
        ];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 3);
        assert!((kept[0].score - 0.9).abs() < 1e-6, "sorted by score");
        assert!(kept.iter().any(|d| d.class == 7));
        assert!(kept.iter().filter(|d| d.class == 3).count() == 2);
    }

    #[test]
    fn decode_recovers_a_planted_box() {
        // One 2x2 grid, 1 class: plant a confident box in cell (1, 0).
        let classes = 1;
        let shape = Shape::new(3 * (5 + classes), 2, 2);
        let mut data = vec![-10.0f32; shape.len()]; // sigmoid(-10) ~ 0
        let (gh, gw) = (2, 2);
        let set =
            |d: &mut [f32], ch: usize, y: usize, x: usize, v: f32| d[(ch * gh + y) * gw + x] = v;
        // Anchor 1 (base channel 6): tx=ty=0 -> center of the cell + 0.5.
        let base = 6;
        set(&mut data, base, 0, 1, 0.0);
        set(&mut data, base + 1, 0, 1, 0.0);
        set(&mut data, base + 2, 0, 1, 0.0); // tw = 0 -> anchor width
        set(&mut data, base + 3, 0, 1, 0.0);
        set(&mut data, base + 4, 0, 1, 10.0); // objectness ~ 1
        set(&mut data, base + 5, 0, 1, 10.0); // class 0 ~ 1
        let anchors = [(16.0, 30.0), (32.0, 32.0), (64.0, 64.0)];
        let dets = decode_yolo_head(&data, shape, &anchors, 64, 0.5);
        assert_eq!(dets.len(), 1);
        let d = &dets[0];
        assert!((d.x - 0.75).abs() < 1e-5, "cell x=1 center");
        assert!((d.y - 0.25).abs() < 1e-5);
        assert!((d.w - 0.5).abs() < 1e-5, "anchor 32 px / 64 px input");
        assert!(d.score > 0.99);
        assert_eq!(d.class, 0);
    }

    #[test]
    fn decode_thresholds_out_everything_when_quiet() {
        let shape = Shape::new(255, 4, 4);
        let data = vec![-6.0f32; shape.len()];
        let anchors = [YOLOV3_ANCHORS[6], YOLOV3_ANCHORS[7], YOLOV3_ANCHORS[8]];
        let dets = decode_yolo_head(&data, shape, &anchors, 416, 0.25);
        assert!(dets.is_empty());
    }

    #[test]
    fn end_to_end_decode_from_network_heads() {
        // Run tiny-YOLO and decode both heads: counts are arbitrary with
        // random weights, but the pipeline must produce finite, normalized
        // boxes and survive NMS.
        use crate::layer::LayerSpec;
        use crate::models::yolov3_tiny;
        use crate::network::Network;
        use crate::ConvPolicy;
        use lva_isa::{Machine, MachineConfig};
        use lva_kernels::GemmVariant;
        use lva_tensor::host_random;

        let (specs, shape) = yolov3_tiny(96);
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
        let mut net = Network::build(&mut m, &specs, shape, policy, 11);
        let image = host_random(shape.len(), 5);
        let rep = net.run(&mut m, &image);
        let mut all = Vec::new();
        for (i, l) in rep.layers.iter().enumerate() {
            if matches!(net.layers[i].spec, LayerSpec::Yolo) {
                let data = net.layers[i].out.to_host(&m);
                let anchors = [YOLOV3_ANCHORS[6], YOLOV3_ANCHORS[7], YOLOV3_ANCHORS[8]];
                all.extend(decode_yolo_head(&data, l.out_shape, &anchors, 96, 0.3));
            }
        }
        let kept = nms(all, 0.45);
        for d in &kept {
            assert!(d.x.is_finite() && d.w.is_finite() && d.score.is_finite());
            assert!(d.score >= 0.0 && d.score <= 1.0);
        }
    }
}
