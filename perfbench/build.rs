//! Pins the code placement of the serve-mix hot loop in the benchmark binary.
//!
//! Every serve-mix timing is dominated by `core::str::from_utf8`: the JSON
//! decoder validates the rest of a request line once per character. Its
//! inner loop ran up to 1.8x slower when the function started at 0 modulo 64
//! in `.text` than at 32, and where it started depended on the size and order
//! of every function linked before it, so any change elsewhere in the
//! program could move every serve-mix time. Linking a page-aligned `.text`
//! that starts with the functions listed in `link-order.txt` keeps
//! `from_utf8` at 32 bytes past a page boundary in every build. The names are
//! the toolchain's mangled ones; after a toolchain update, take them again
//! from `nm` on the binary (see `perfbench/README.md`).

fn main() {
    let dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    println!("cargo:rerun-if-changed=link-order.txt");
    println!("cargo:rustc-link-arg-bins=-Wl,-z,separate-code");
    println!("cargo:rustc-link-arg-bins=-Wl,--symbol-ordering-file={dir}/link-order.txt");
}
