//! `benchmark/` is its own cargo workspace, out of the workspace lints' reach.

#[test]
fn benchmark_sources_have_no_unsafe_and_no_partial_cmp() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../benchmark/src");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap();
            for token in ["unsafe", "partial_cmp"] {
                assert!(!src.contains(token), "{} has `{token}`", path.display());
            }
        }
    }
}
