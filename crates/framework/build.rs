//! Build script of cca-framework: runs the cca-sidl generator over
//! `sidl/cca_ports.sidl` and writes the service ports' traits, stubs and
//! skeletons into OUT_DIR, where `src/service.rs` includes them.

use std::env;
use std::fs;
use std::path::PathBuf;

const SOURCE: &str = "../../sidl/cca_ports.sidl";

fn main() {
    println!("cargo:rerun-if-changed={SOURCE}");
    let source = fs::read_to_string(SOURCE).expect("sidl/cca_ports.sidl readable");
    let model = cca_sidl::compile(&source).unwrap_or_else(|e| panic!("cca_ports.sidl: {e}"));
    let rust = cca_sidl::codegen_rust::generate_rust(
        &model,
        &cca_sidl::codegen_rust::RustCodegenOptions::default(),
    );
    let out_dir = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR set"));
    fs::write(out_dir.join("cca_ports_generated.rs"), rust).expect("write generated rust");
}
