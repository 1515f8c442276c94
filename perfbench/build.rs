//! Records the rustc flags this binary was really compiled with (the
//! merge of `RUSTFLAGS` and `.cargo/config.toml`) for the host stamp.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\x1f', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
