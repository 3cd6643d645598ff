//! Report structures: the series and tables the experiment runners produce.

use crate::json::Value;

/// One measured point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter (cardinality, buffer size, range size, diameter …).
    pub x: f64,
    /// The measured value (I/O count or approximation ratio).
    pub y: f64,
}

/// A named series (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend name (e.g. "ExactMaxRS").
    pub name: String,
    /// The measured points, in sweep order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(SeriesPoint { x, y });
    }

    /// The y value measured at the given x, if any.
    pub fn value_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }
}

/// A reproduced figure or table: several series over a common x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Identifier matching the paper ("fig12a", "fig17", "table2" …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the swept parameter.
    pub x_label: String,
    /// Label of the measured value.
    pub y_label: String,
    /// The measured series.
    pub series: Vec<Series>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The series with the given name, if present.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// All x values present in any series, sorted and deduplicated.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_unstable_by(f64::total_cmp);
        xs.dedup();
        xs
    }

    /// Renders the report as an aligned text table (one row per x value, one
    /// column per series) — the format printed by the `experiments` binary.
    pub fn to_table_string(&self) -> String {
        let xs = self.x_values();
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.name.clone()));
        let mut rows: Vec<Vec<String>> = vec![header];
        for x in xs {
            let mut row = vec![format_number(x)];
            for s in &self.series {
                row.push(match s.value_at(x) {
                    Some(v) => format_number(v),
                    None => "-".to_string(),
                });
            }
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        for row in rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, v)| format!("{:>width$}", v, width = widths[c]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out.push_str(&format!("({} vs {})\n", self.y_label, self.x_label));
        out
    }

    /// Converts the report into a JSON document.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("id", Value::String(self.id.clone())),
            ("title", Value::String(self.title.clone())),
            ("x_label", Value::String(self.x_label.clone())),
            ("y_label", Value::String(self.y_label.clone())),
            (
                "series",
                Value::Array(
                    self.series
                        .iter()
                        .map(|s| {
                            Value::object(vec![
                                ("name", Value::String(s.name.clone())),
                                (
                                    "points",
                                    Value::Array(
                                        s.points
                                            .iter()
                                            .map(|p| {
                                                Value::object(vec![
                                                    ("x", Value::Number(p.x)),
                                                    ("y", Value::Number(p.y)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn format_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureReport {
        let mut report = FigureReport::new("fig12a", "I/O vs cardinality", "N", "I/O");
        let mut a = Series::new("Naive");
        a.push(100.0, 50000.0);
        a.push(200.0, 200000.0);
        let mut b = Series::new("ExactMaxRS");
        b.push(100.0, 500.0);
        b.push(200.0, 900.0);
        report.add_series(a);
        report.add_series(b);
        report
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let t = sample().to_table_string();
        assert!(t.contains("fig12a"));
        assert!(t.contains("Naive"));
        assert!(t.contains("ExactMaxRS"));
        assert!(t.contains("200000"));
        assert!(t.contains("900"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    fn json_rendering() {
        let r = sample();
        let expected = r#"{
  "id": "fig12a",
  "title": "I/O vs cardinality",
  "x_label": "N",
  "y_label": "I/O",
  "series": [
    {
      "name": "Naive",
      "points": [
        {
          "x": 100,
          "y": 50000
        },
        {
          "x": 200,
          "y": 200000
        }
      ]
    },
    {
      "name": "ExactMaxRS",
      "points": [
        {
          "x": 100,
          "y": 500
        },
        {
          "x": 200,
          "y": 900
        }
      ]
    }
  ]
}"#;
        assert_eq!(r.to_value().to_pretty_string(), expected);
    }

    #[test]
    fn series_lookup() {
        let r = sample();
        assert_eq!(
            r.series_named("Naive").unwrap().value_at(100.0),
            Some(50000.0)
        );
        assert!(r.series_named("missing").is_none());
        assert_eq!(r.x_values(), vec![100.0, 200.0]);
        assert_eq!(r.series_named("ExactMaxRS").unwrap().value_at(300.0), None);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(1000.0), "1000");
        assert_eq!(format_number(0.9123), "0.9123");
    }
}
