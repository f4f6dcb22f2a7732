//! The certificate gate: retiming is only sound if streams are
//! design-point invariant, and that is a *proven* property, not an
//! assumption.
//!
//! `lva-depgraph` already certifies every kernel in the `lva-check`
//! registry: per kernel × design point it re-records the semantic stream
//! under timing perturbations (L2 capacity, halved lanes, reference
//! model, full idealization) and requires it not to move, plus VL
//! equivalence across the swept vector lengths. The gate runs that
//! certification once per engine (lazily, on the first retime request)
//! and refuses — naming the offending kernels — if any certificate comes
//! back invalid. A refused engine falls back to full simulation for every
//! run, so a stream-varying kernel can never corrupt results; it only
//! costs the speedup.

use lva_check::{registered_kernels, sweep_configs, KernelCase};
use lva_depgraph::certify_kernel;
use std::time::Instant;

/// Lazily-evaluated certification verdict over a set of kernel cases.
pub struct CertGate {
    cases: Vec<KernelCase>,
    verdict: Option<Result<(), String>>,
    /// Host milliseconds the (one-time) certification pass took.
    pub cert_ms: f64,
    /// (kernel, shape, certified) per case, filled when the gate runs.
    pub certificates: Vec<(String, String, bool)>,
}

impl std::fmt::Debug for CertGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertGate")
            .field("cases", &self.cases.len())
            .field("verdict", &self.verdict)
            .finish()
    }
}

impl CertGate {
    /// The production gate: every kernel in the `lva-check` registry.
    pub fn standard() -> Self {
        Self::with_cases(registered_kernels())
    }

    /// A gate over explicit cases (tests inject synthetic kernels here).
    pub fn with_cases(cases: Vec<KernelCase>) -> Self {
        CertGate { cases, verdict: None, cert_ms: 0.0, certificates: Vec::new() }
    }

    /// A gate with a pre-decided verdict (no certification run). Used to
    /// skip the one-time cost when the caller has already run
    /// `lint-dataflow` in the same pipeline.
    pub fn decided(verdict: Result<(), String>) -> Self {
        CertGate {
            cases: Vec::new(),
            verdict: Some(verdict),
            cert_ms: 0.0,
            certificates: Vec::new(),
        }
    }

    /// Certify (once) and return the gate verdict: `Ok(())` if every case
    /// holds a valid certificate, else the refusal reason.
    pub fn check(&mut self) -> Result<(), String> {
        if self.verdict.is_none() {
            let t0 = Instant::now();
            let sweep = sweep_configs();
            let mut failed: Vec<String> = Vec::new();
            for case in &self.cases {
                let (cert, _findings) = certify_kernel(case, &sweep);
                if !cert.certified {
                    failed.push(format!("{}[{}]", cert.kernel, cert.shape));
                }
                self.certificates.push((cert.kernel, cert.shape, cert.certified));
            }
            self.cert_ms = t0.elapsed().as_secs_f64() * 1e3;
            self.verdict = Some(if failed.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "stream-invariance certification failed for {} kernel(s): {} \
                     — their semantic streams vary with the design point, so \
                     retiming would be unsound; falling back to full simulation",
                    failed.len(),
                    failed.join(", ")
                ))
            });
        }
        self.verdict.clone().expect("just decided")
    }
}
