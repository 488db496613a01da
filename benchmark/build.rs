//! Tells the harness which dependency set it is built against, so every
//! output header can say so: `cfg(standin_deps)` when Cargo.lock resolves
//! `serde` to a path (the stand-ins of offline.toml) and not to a registry.

fn main() {
    println!("cargo:rerun-if-changed=Cargo.lock");
    println!("cargo:rustc-check-cfg=cfg(standin_deps)");
    let lock = std::fs::read_to_string("Cargo.lock").unwrap_or_default();
    let serde = lock
        .split("[[package]]")
        .find(|p| p.contains("name = \"serde\""));
    // a registry package carries a `source` line, a path package none
    if serde.is_some_and(|p| !p.contains("source = ")) {
        println!("cargo:rustc-cfg=standin_deps");
    }
}
