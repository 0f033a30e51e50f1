//! Shared plumbing for the custom-harness benches.

use lms_util::Json;

/// Reads a checked-in bench result file. `None` when the file is missing;
/// panics when it exists but is not valid JSON, so a damaged file is never
/// silently replaced.
pub fn read_bench_file(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}")))
}

/// Read-modify-write of a bench result file: `update` sets the keys its
/// bench owns and every other key is kept as it was. A missing file
/// starts as an empty object.
pub fn update_bench_file(path: &str, update: impl FnOnce(&mut Json)) {
    let mut doc = read_bench_file(path).unwrap_or_else(|| Json::Obj(Vec::new()));
    update(&mut doc);
    std::fs::write(path, doc.to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("updated {path}");
}

/// `x` rounded to `places` decimals, as a JSON number.
pub fn rounded(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}
