//! Application description files (paper §4.1.1 item (2) and §4.3).
//!
//! Operating points can be shipped with an application (e.g. produced by an
//! offline design-space exploration) as a JSON description file under
//! `/etc/harp`. libharp parses the file at startup and submits the points
//! during registration.

use harp_obs::json::{self, Json};
use harp_types::{ErvShape, ExtResourceVector, HarpError, NonFunctional, OperatingPoint, Result};
use std::path::Path;

/// The on-disk description of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppDescription {
    /// Application name (matches the registration name).
    pub name: String,
    /// Per-kind SMT widths of the platform the points were measured on.
    pub smt_widths: Vec<usize>,
    /// The operating points.
    pub points: Vec<DescribedPoint>,
}

/// One operating point of a description file.
#[derive(Debug, Clone, PartialEq)]
pub struct DescribedPoint {
    /// Flattened extended resource vector.
    pub erv: Vec<u32>,
    /// Measured utility (work per second).
    pub utility: f64,
    /// Measured power (watts).
    pub power: f64,
}

impl AppDescription {
    /// Builds a description from typed operating points.
    pub fn from_points(
        name: impl Into<String>,
        shape: &ErvShape,
        points: &[OperatingPoint],
    ) -> Self {
        AppDescription {
            name: name.into(),
            smt_widths: shape.smt_widths().to_vec(),
            points: points
                .iter()
                .map(|p| DescribedPoint {
                    erv: p.erv.flat(),
                    utility: p.nfc.utility,
                    power: p.nfc.power,
                })
                .collect(),
        }
    }

    /// Converts the description into typed operating points.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::ShapeMismatch`] if any point's vector does not
    /// match the declared shape, or [`HarpError::Description`] for invalid
    /// values.
    pub fn to_points(&self) -> Result<Vec<(ExtResourceVector, NonFunctional)>> {
        let shape = ErvShape::new(self.smt_widths.clone());
        let mut out = Vec::with_capacity(self.points.len());
        for p in &self.points {
            if !(p.utility.is_finite() && p.power.is_finite()) || p.utility < 0.0 || p.power < 0.0 {
                return Err(HarpError::Description {
                    detail: format!("invalid characteristics in point {:?}", p.erv),
                });
            }
            let erv = ExtResourceVector::from_flat(&shape, &p.erv)?;
            out.push((erv, NonFunctional::new(p.utility, p.power)));
        }
        Ok(out)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            Json::obj([
                ("erv", p.erv.iter().copied().collect()),
                ("utility", p.utility.into()),
                ("power", p.power.into()),
            ])
        });
        Json::obj([
            ("name", self.name.as_str().into()),
            ("smt_widths", self.smt_widths.iter().copied().collect()),
            ("points", points.collect()),
        ])
        .to_pretty()
    }

    /// Parses from JSON and validates. Every field is required and unknown
    /// keys are ignored; counts (`smt_widths`, `erv`) must be non-negative
    /// whole numbers in range, where `8.0` reads as 8.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Description`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self> {
        let d = json::parse(json)
            .and_then(|doc| Self::decode(&doc))
            .map_err(|e| HarpError::Description {
                detail: format!("malformed application description: {e}"),
            })?;
        d.to_points()?; // validate
        Ok(d)
    }

    fn decode(doc: &Json) -> std::result::Result<Self, String> {
        let points = doc.arr_field("points")?.iter().map(|p| {
            Ok(DescribedPoint {
                erv: p.counts_field("erv")?,
                utility: p.f64_field("utility")?,
                power: p.f64_field("power")?,
            })
        });
        Ok(AppDescription {
            name: doc.str_field("name")?.to_string(),
            smt_widths: doc.counts_field("smt_widths")?,
            points: points.collect::<std::result::Result<_, String>>()?,
        })
    }

    /// Loads a description file.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Io`] on read failure and
    /// [`HarpError::Description`] on invalid content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Stores the description as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Io`] on write failure.
    pub fn store(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AppDescription {
        AppDescription {
            name: "mg".into(),
            smt_widths: vec![2, 1],
            points: vec![
                DescribedPoint {
                    erv: vec![0, 2, 0],
                    utility: 1.0e10,
                    power: 20.0,
                },
                DescribedPoint {
                    erv: vec![0, 0, 6],
                    utility: 9.0e9,
                    power: 11.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let d = sample();
        let back = AppDescription::from_json(&d.to_json()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn to_points_produces_typed_vectors() {
        let pts = sample().to_points().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0.cores_of_kind(0), 2);
        assert_eq!(pts[1].0.cores_of_kind(1), 6);
    }

    #[test]
    fn invalid_points_are_rejected() {
        let mut d = sample();
        d.points[0].erv = vec![1, 2]; // wrong length
        assert!(d.to_points().is_err());
        let mut d = sample();
        d.points[0].utility = f64::NAN;
        assert!(AppDescription::from_json(&d.to_json()).is_err());
        let mut d = sample();
        d.points[0].power = -1.0;
        assert!(d.to_points().is_err());
    }

    #[test]
    fn from_typed_points_round_trip() {
        let shape = ErvShape::new(vec![2, 1]);
        let p = OperatingPoint::new(
            ExtResourceVector::from_flat(&shape, &[1, 1, 3]).unwrap(),
            NonFunctional::new(4.0, 8.0),
        );
        let d = AppDescription::from_points("x", &shape, std::slice::from_ref(&p));
        let pts = d.to_points().unwrap();
        assert_eq!(pts[0].0, p.erv);
        assert_eq!(pts[0].1, p.nfc);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("harp-desc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mg.json");
        sample().store(&path).unwrap();
        assert_eq!(AppDescription::load(&path).unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }
}
