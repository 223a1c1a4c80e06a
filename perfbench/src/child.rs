//! The line protocol a pass runs over: every pass runs in a child
//! process of its own (so its peak RSS is its own), which prints its
//! [`Pass`] as text lines the parent parses back.
//!
//! Values are written with Rust's shortest round-trip float format, so
//! a parsed value is bit-identical to the one written.

use crate::layers::GROUPS;
use crate::workloads::Pass;

/// Renders a pass as protocol lines.
pub fn encode(pass: &Pass) -> String {
    let mut out = String::new();
    for (k, v) in &pass.host {
        out.push_str(&format!("host {k} {v:?}\n"));
    }
    for (k, v) in &pass.sim {
        out.push_str(&format!("sim {k} {v:?}\n"));
    }
    out.push_str("steps");
    for s in &pass.steps_ms {
        out.push_str(&format!(" {s:?}"));
    }
    out.push('\n');
    for (g, name) in GROUPS.iter().enumerate() {
        out.push_str(&format!(
            "group {name} {} {}\n",
            pass.groups.events[g], pass.groups.self_ns[g]
        ));
    }
    out.push_str(&format!("kernel_ns {}\n", pass.groups.kernel_ns));
    for p in &pass.problems {
        out.push_str(&format!("problem {}\n", p.replace('\n', " ")));
    }
    out
}

/// Parses protocol lines back into a pass.
pub fn decode(text: &str) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("bad number {s:?} in {line:?}: {e}"))
        };
        match tag {
            "host" | "sim" => {
                let (k, v) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed line {line:?}"))?;
                let map = if tag == "host" {
                    &mut pass.host
                } else {
                    &mut pass.sim
                };
                map.insert(k.to_string(), num(v)?);
            }
            "steps" => {
                pass.steps_ms = rest.split_whitespace().map(num).collect::<Result<_, _>>()?;
            }
            "group" => {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let g = GROUPS
                    .iter()
                    .position(|n| Some(n) == f.first())
                    .ok_or_else(|| format!("unknown group in {line:?}"))?;
                let int = |i: usize| {
                    f.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| format!("malformed line {line:?}"))
                };
                pass.groups.events[g] = int(1)?;
                pass.groups.self_ns[g] = int(2)?;
            }
            "kernel_ns" => {
                pass.groups.kernel_ns = rest
                    .parse()
                    .map_err(|_| format!("malformed line {line:?}"))?;
            }
            "problem" => pass.problems.push(rest.to_string()),
            _ => {}
        }
    }
    Ok(pass)
}
