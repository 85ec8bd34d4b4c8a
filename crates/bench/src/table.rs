//! Paper-style series tables.

use gtt_metrics::FigureRow;

use crate::sweep::SweepResults;

/// Extracts one series value from a six-series row.
type SeriesAccessor = fn(&FigureRow) -> f64;

/// The six sub-figures of every evaluation figure, in paper order.
const SERIES: [(&str, SeriesAccessor); 6] = [
    ("Packet delivery ratio (%)", |r| r.pdr_percent),
    ("End-to-end delay (ms)", |r| r.delay_ms),
    ("Packet loss (packet/minute)", |r| r.loss_per_min),
    ("Radio duty cycle (%)", |r| r.duty_cycle_percent),
    ("Queue loss (packets/node)", |r| r.queue_loss),
    ("Received packets per minute", |r| r.received_per_min),
];

/// Renders the figure's six series as sub-tables `(a)`–`(f)`, matching
/// the layout of the paper's Figs. 8–10.
pub fn render_figure_tables(figure: &str, results: &SweepResults) -> String {
    let mut out = String::new();
    let xs = results.x_labels();
    let schedulers = results.schedulers();

    for (idx, (title, extract)) in SERIES.iter().enumerate() {
        let sub = (b'a' + idx as u8) as char;
        out.push_str(&format!("## Fig. {figure}{sub} — {title}\n"));
        out.push_str(&format!("{:<12}", results.x_axis));
        for x in &xs {
            out.push_str(&format!(" {x:>9}"));
        }
        out.push('\n');
        for sched in &schedulers {
            out.push_str(&format!("{sched:<12}"));
            for x in &xs {
                match results.get(sched, x) {
                    Some(p) => out.push_str(&format!(" {:>9.2}", extract(&p.mean))),
                    None => out.push_str(&format!(" {:>9}", "-")),
                }
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::PointResult;

    fn fake_results() -> SweepResults {
        let row = |pdr: f64| FigureRow {
            pdr_percent: pdr,
            delay_ms: 100.0,
            loss_per_min: 1.0,
            duty_cycle_percent: 9.0,
            queue_loss: 0.0,
            received_per_min: 400.0,
        };
        SweepResults {
            x_axis: "traffic".into(),
            points: vec![
                PointResult {
                    x_label: "30".into(),
                    scheduler: "gt-tsch",
                    mean: row(99.0),
                    rows: vec![row(99.0)],
                    join_ratio: 1.0,
                    generated: 100.0,
                },
                PointResult {
                    x_label: "30".into(),
                    scheduler: "orchestra",
                    mean: row(97.0),
                    rows: vec![row(97.0)],
                    join_ratio: 1.0,
                    generated: 100.0,
                },
            ],
        }
    }

    #[test]
    fn renders_six_subtables_with_all_schedulers() {
        let text = render_figure_tables("8", &fake_results());
        for sub in ["8a", "8b", "8c", "8d", "8e", "8f"] {
            assert!(text.contains(&format!("Fig. {sub}")), "missing {sub}");
        }
        assert!(text.contains("gt-tsch"));
        assert!(text.contains("orchestra"));
        assert!(text.contains("99.00"));
        assert!(text.contains("97.00"));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut results = fake_results();
        results.points.remove(1); // drop orchestra but keep it unknown
        let text = render_figure_tables("9", &results);
        assert!(
            !text.contains("orchestra"),
            "only present schedulers listed"
        );
    }
}
