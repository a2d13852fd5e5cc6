//! Records the compiler version the benchmark was built with, so every
//! result file says which toolchain produced its numbers.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=NVCACHE_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
