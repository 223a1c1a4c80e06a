//! Checkpoint serialization for trace-IR types.
//!
//! [`Snapshot`] impls for everything of this crate that appears in a
//! machine checkpoint: sampled request programs embed [`Trace`]s (via
//! `Arc`, serialized by content — traces are immutable once built, so a
//! restored copy in a fresh `Arc` is behaviorally identical), and queue
//! entries carry [`PositionMark`]s, [`AtmAddr`]s, and [`PayloadFlags`].
//! Enums use stable one-byte tags independent of `as`-cast
//! discriminants; unknown tags are rejected as corrupt rather than
//! wrapped. See `docs/CHECKPOINT.md` for the wire format.

use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};

use crate::atm::AtmAddr;
use crate::cond::{BranchCond, PayloadFlags};
use crate::format::{DataFormat, Transform};
use crate::ir::{PositionMark, Slot, Trace};
use crate::kind::AccelKind;

impl Snapshot for AccelKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.id());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let id = r.u8()?;
        AccelKind::from_id(id)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown AccelKind id {id}")))
    }
}

impl Snapshot for DataFormat {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.code());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let code = r.u8()?;
        DataFormat::from_code(code)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown DataFormat code {code}")))
    }
}

accelflow_sim::snapshot_record!(Transform { src, dst });

impl Snapshot for BranchCond {
    fn save(&self, w: &mut SnapWriter) {
        let (mask, expect) = match self {
            BranchCond::Custom { mask, expect } => (*mask, *expect),
            _ => (0, 0),
        };
        w.u8(self.code());
        w.u8(mask);
        w.u8(expect);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let code = r.u8()?;
        let mask = r.u8()?;
        let expect = r.u8()?;
        BranchCond::from_code(code, mask, expect)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown BranchCond code {code}")))
    }
}

accelflow_sim::snapshot_record!(AtmAddr(0));

accelflow_sim::snapshot_record!(PositionMark(0));

accelflow_sim::snapshot_record!(PayloadFlags {
    compressed,
    hit,
    found,
    exception,
    cache_compressed,
    custom_field,
});

impl Snapshot for Slot {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Slot::Accel(kind) => {
                w.u8(0);
                kind.save(w);
            }
            Slot::Branch {
                cond,
                on_true,
                on_false,
            } => {
                w.u8(1);
                cond.save(w);
                w.u8(*on_true);
                w.u8(*on_false);
            }
            Slot::Jump(target) => {
                w.u8(2);
                w.u8(*target);
            }
            Slot::Transform(t) => {
                w.u8(3);
                t.save(w);
            }
            Slot::ForkToCpu => w.u8(4),
            Slot::ToCpu => w.u8(5),
            Slot::NextTrace(addr) => {
                w.u8(6);
                addr.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Slot::Accel(AccelKind::load(r)?),
            1 => Slot::Branch {
                cond: BranchCond::load(r)?,
                on_true: r.u8()?,
                on_false: r.u8()?,
            },
            2 => Slot::Jump(r.u8()?),
            3 => Slot::Transform(Transform::load(r)?),
            4 => Slot::ForkToCpu,
            5 => Slot::ToCpu,
            6 => Slot::NextTrace(AtmAddr::load(r)?),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown trace Slot tag {other}"
                )))
            }
        })
    }
}

impl Snapshot for Trace {
    /// Serializes by content (name + slot program); [`Trace::load`]
    /// revalidates the program, so corrupt control flow (backward
    /// jumps, out-of-range targets) is rejected instead of trusted.
    fn save(&self, w: &mut SnapWriter) {
        w.str(self.name());
        w.usize(self.slots().len());
        for slot in self.slots() {
            slot.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let name = r.str()?;
        let slots = Vec::<Slot>::load(r)?;
        Trace::try_new(name, slots).map_err(SnapshotError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TraceLibrary;

    fn roundtrip<T: Snapshot>(value: &T) -> T {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let out = T::load(&mut r).expect("roundtrip failed");
        assert!(r.is_exhausted(), "trailing bytes after roundtrip");
        out
    }

    #[test]
    fn every_library_trace_roundtrips() {
        let lib = TraceLibrary::standard();
        for template in crate::templates::TemplateId::ALL {
            let trace = lib.entry(template);
            assert_eq!(&roundtrip(trace), trace, "{template}");
        }
    }

    #[test]
    fn slot_tags_roundtrip() {
        for slot in [
            Slot::Accel(AccelKind::Ldb),
            Slot::Branch {
                cond: BranchCond::Custom {
                    mask: 0xF0,
                    expect: 0x30,
                },
                on_true: 2,
                on_false: 3,
            },
            Slot::Jump(7),
            Slot::Transform(Transform {
                src: DataFormat::Json,
                dst: DataFormat::Protobuf,
            }),
            Slot::ForkToCpu,
            Slot::ToCpu,
            Slot::NextTrace(AtmAddr(513)),
        ] {
            assert_eq!(roundtrip(&slot), slot);
        }
    }

    #[test]
    fn corrupt_trace_program_rejected() {
        // A hand-built byte stream encoding a backward jump must fail
        // revalidation on load.
        let mut w = SnapWriter::new();
        w.str("evil");
        w.usize(2);
        Slot::Accel(AccelKind::Tcp).save(&mut w);
        Slot::Jump(0).save(&mut w); // backward: invalid
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Trace::load(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn payload_flags_roundtrip() {
        let flags = PayloadFlags {
            compressed: true,
            hit: false,
            found: true,
            exception: false,
            cache_compressed: true,
            custom_field: 0xA5,
        };
        assert_eq!(roundtrip(&flags), flags);
    }
}
