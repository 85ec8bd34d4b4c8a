//! Structural validator for the pcap traces the figure binaries emit.
//!
//! Usage: `pcapcheck FILE…` — reads each capture and checks the whole
//! chain the CI trace-smoke step cares about: classic pcap global
//! header (magic, version 2.4, linktype 195 = IEEE 802.15.4 with FCS),
//! record framing (`incl_len == orig_len ≤ 65535`, no trailing bytes),
//! monotone timestamps, and every frame body parsing as a well-formed
//! GT-TSCH wire frame with a valid FCS. Prints one summary line per
//! file and exits 0 only if every file validates. `--help` prints the
//! usage; no files, or any other flag, prints it and exits 2.

use std::process::exit;

const USAGE: &str = "usage: pcapcheck FILE…";

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = files.iter().find(|a| a.starts_with("--") || *a == "-h") {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}\n\nValidates pcap traces written by --pcap.");
            exit(0);
        }
        eprintln!("error: unknown flag {flag}\n{USAGE}");
        exit(2);
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        exit(2);
    }
    let mut failed = false;
    for file in &files {
        let bytes = match std::fs::read(file) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match gtt_frame::pcap::validate(&bytes) {
            Ok(summary) => println!(
                "{file}: ok — {} packets, {} frame bytes",
                summary.packets, summary.frame_bytes
            ),
            Err(e) => {
                eprintln!("{file}: invalid: {e}");
                failed = true;
            }
        }
    }
    exit(if failed { 1 } else { 0 });
}
