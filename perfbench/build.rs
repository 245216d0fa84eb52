//! Records the toolchain and code-generation settings the benchmark was
//! built with, so every result line can name them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // `-C target-cpu=...` as cargo passes it, from `.cargo/config.toml` or
    // RUSTFLAGS; rustc's own default when neither sets one.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\u{1f}')
        .filter_map(|flag| {
            flag.trim_start_matches("-C")
                .strip_prefix("target-cpu=")
                .map(str::to_string)
        })
        .next_back()
        .unwrap_or_else(|| "default".to_string());
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");

    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    let simd: Vec<&str> = features
        .split(',')
        .filter(|f| matches!(*f, "sse4.2" | "avx" | "avx2" | "fma" | "avx512f"))
        .collect();
    println!(
        "cargo:rustc-env=PERFBENCH_TARGET_FEATURES={}",
        simd.join(" ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
