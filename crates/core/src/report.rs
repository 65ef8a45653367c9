//! Human-readable reports: the "proof environment" output of IOLB.
//!
//! The paper frames the tool as a proof environment: the output should let a
//! reader review how a bound was derived. [`Report`] collects the analysis
//! result, the accepted sub-bounds with their derivation notes, and the OI
//! summary, and renders them as text.

use crate::driver::Analysis;
use crate::json::Json;
use crate::oi::OiSummary;
use iolb_preflight::PreflightReport;
use std::fmt;

/// Version of the JSON document emitted by [`Report::to_json`] (and by
/// `AnalysisOutcome::to_json`, which extends it). Bump when a field is
/// removed or changes meaning; additions are backwards-compatible.
pub const SCHEMA_VERSION: u32 = 1;

/// A reviewable report for one analysed kernel.
#[derive(Clone, Debug)]
pub struct Report {
    /// Kernel name.
    pub kernel: String,
    /// The underlying analysis.
    pub analysis: Analysis,
    /// Operational-intensity summary (when the operation count is known).
    pub oi: Option<OiSummary>,
}

impl Report {
    /// Builds a report from an analysis.
    pub fn new(kernel: &str, analysis: Analysis, ops_override: Option<iolb_symbol::Poly>) -> Self {
        let oi = OiSummary::from_analysis(&analysis, ops_override);
        Report {
            kernel: kernel.to_string(),
            analysis,
            oi,
        }
    }

    /// Serialises the report as a JSON document in the canonical layout
    /// (see [`crate::json`]). All symbolic expressions are rendered in their
    /// `Display` form; machine consumers that need more structure should
    /// walk the [`Report::analysis`] fields directly.
    pub fn to_json(&self) -> String {
        Json::obj(self.json_members()).render_pretty()
    }

    /// The members of [`Report::to_json`], in order (`AnalysisOutcome`
    /// extends them).
    pub(crate) fn json_members(&self) -> Vec<(&'static str, Json)> {
        let a = &self.analysis;
        let accepted = a.accepted.iter().map(|b| {
            let notes = b.notes.iter().map(|n| n.as_str().into()).collect();
            Json::obj([("bound", b.to_string().into()), ("notes", Json::Arr(notes))])
        });
        vec![
            ("schema_version", SCHEMA_VERSION.into()),
            ("kernel", self.kernel.as_str().into()),
            ("q_low", a.q_low.to_string().into()),
            ("q_asymptotic", a.q_asymptotic().to_string().into()),
            ("input_size", a.input_size.to_string().into()),
            ("cache_param", a.cache_param.as_str().into()),
            ("ops", self.oi.as_ref().map(|oi| oi.ops.to_string()).into()),
            (
                "oi_up",
                self.oi
                    .as_ref()
                    .and_then(|o| o.oi_up.as_ref())
                    .map(|up| up.to_string())
                    .into(),
            ),
            ("num_candidates", a.candidates.len().into()),
            ("accepted_bounds", Json::Arr(accepted.collect())),
        ]
    }

    /// One-line summary: kernel, asymptotic bound, asymptotic OI.
    pub fn summary_line(&self) -> String {
        let q = self.analysis.q_asymptotic();
        let oi = self
            .oi
            .as_ref()
            .and_then(|o| o.oi_up.clone())
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".to_string());
        format!(
            "{:<16} Q∞ = {:<28} OI_up = {}",
            self.kernel,
            q.to_string(),
            oi
        )
    }
}

/// The preflight document: workload, cost class and blowup score, the
/// structural profile and the diagnostics. `iolb-preflight` sits below
/// this crate, so its rendering lives here.
pub fn preflight_json(report: &PreflightReport) -> Json {
    let p = &report.profile;
    let statements = p.statements.iter().map(|s| {
        Json::obj([
            ("name", s.name.as_str().into()),
            ("dim", s.dim.into()),
            ("fan_in", s.fan_in.into()),
            ("fan_out", s.fan_out.into()),
            ("uniform_in", s.uniform_in.into()),
            ("pattern", s.pattern.to_string().into()),
            ("blowup_score", s.blowup_score.into()),
        ])
    });
    let diagnostics = report.diagnostics.iter().map(|d| {
        let span = d
            .span
            .map(|s| Json::obj([("line", s.line.into()), ("col", s.col.into())]));
        Json::obj([
            ("severity", d.severity.to_string().into()),
            ("code", d.code.into()),
            ("message", d.message.as_str().into()),
            ("span", span.into()),
        ])
    });
    let profile = Json::obj([
        ("inputs", p.inputs.into()),
        (
            "params",
            Json::Arr(p.params.iter().map(|s| s.as_str().into()).collect()),
        ),
        ("assumptions", p.assumptions.into()),
        ("max_depth", p.max_depth.into()),
        ("parametrization_depth", p.parametrization_depth.into()),
        ("statements", Json::Arr(statements.collect())),
    ]);
    Json::obj([
        ("workload", p.name.as_str().into()),
        ("cost_class", p.cost_class.to_string().into()),
        ("blowup_score", p.blowup_score.into()),
        ("profile", profile),
        ("diagnostics", Json::Arr(diagnostics.collect())),
    ])
}

/// `to_json` on a [`PreflightReport`]: the compact one-line
/// [`preflight_json`] document.
pub trait PreflightJson {
    /// The preflight document as one line of compact JSON.
    fn to_json(&self) -> String;
}

impl PreflightJson for PreflightReport {
    fn to_json(&self) -> String {
        preflight_json(self).render()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel: {}", self.kernel)?;
        writeln!(f, "  Q_low  = {}", self.analysis.q_low)?;
        writeln!(f, "  Q∞     = {}", self.analysis.q_asymptotic())?;
        writeln!(f, "  inputs = {}", self.analysis.input_size)?;
        if let Some(oi) = &self.oi {
            writeln!(f, "  #ops   = {}", oi.ops)?;
            if let Some(up) = &oi.oi_up {
                writeln!(f, "  OI_up  = {}", up)?;
            }
        }
        writeln!(
            f,
            "  accepted sub-bounds: {} (of {} candidates)",
            self.analysis.accepted.len(),
            self.analysis.candidates.len()
        )?;
        for b in &self.analysis.accepted {
            writeln!(f, "    - {}", b)?;
            for note in &b.notes {
                writeln!(f, "        {note}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{analyze, AnalysisOptions};
    use iolb_dfg::Dfg;
    use iolb_poly::EngineCtx;

    fn simple() -> Dfg {
        Dfg::builder()
            .input("X", "[N] -> { X[i] : 0 <= i < N }")
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("X", "S", "[N] -> { X[i] -> S[i2] : i2 = i and 0 <= i < N }")
            .build()
            .unwrap()
    }

    #[test]
    fn report_renders() {
        let _session = EngineCtx::new().enter();
        let g = simple();
        let options = AnalysisOptions::with_default_instance(&["N"], 1000, 128);
        let analysis = analyze(&g, &options);
        let report = Report::new("copy", analysis, None);
        let text = report.to_string();
        assert!(text.contains("kernel: copy"));
        assert!(text.contains("Q_low"));
        let line = report.summary_line();
        assert!(line.contains("copy"));
        assert!(line.contains("OI_up"));
    }

    #[test]
    fn report_serialises_to_json() {
        let _session = EngineCtx::new().enter();
        let g = simple();
        let options = AnalysisOptions::with_default_instance(&["N"], 1000, 128);
        let analysis = analyze(&g, &options);
        let report = Report::new("copy", analysis, None);
        let json = report.to_json();
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"kernel\": \"copy\""));
        assert!(json.contains("\"q_low\": \""));
        assert!(json.contains("\"accepted_bounds\": ["));
        let doc = crate::json::parse(&json).expect("the report is valid JSON");
        assert_eq!(doc.get("kernel").and_then(|k| k.as_str()), Some("copy"));
    }

    #[test]
    fn preflight_document_is_one_compact_line() {
        iolb_poly::EngineCtx::new().scope(|| {
            let report = iolb_preflight::preflight(
                "copy",
                &simple(),
                &["N".to_string()],
                &iolb_poly::Context::empty(),
                0,
                None,
            );
            let json = report.to_json();
            assert!(json.starts_with("{\"workload\":\"copy\",\"cost_class\":\"small\""));
            assert!(json.contains("\"pattern\":"), "{json}");
            assert!(json.ends_with("\"diagnostics\":[]}"), "{json}");
        });
    }
}
