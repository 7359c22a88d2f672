//! The workspace's lint configuration, held in tier-1: every member
//! inherits the workspace lints, and every package reads the clippy
//! rules of its tier (DESIGN §12). A path in a tier file that resolves
//! to nothing fails no clippy run, so CI's "clippy rules bite" step
//! plants one violation of each rule; this test holds the wiring, and
//! that the sans-io source waives the rules only where it should.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Each tier's file under `clippy/` and the packages (directories under
/// `crates/`) whose `clippy.toml` is a symlink to it.
const TIERS: &[(&str, &[&str])] = &[
    (
        "sans-io.toml",
        &[
            "broker", "core", "flux-mc", "hash", "kap", "kvs", "modules", "pmi", "rt", "sim",
            "topo", "value",
        ],
    ),
    ("sans-io-registry.toml", &["proto", "wire"]),
    ("io.toml", &["bench", "cli"]),
];

/// The I/O modules of the sans-io tier: each waives the rules for the
/// whole file with one `#![expect]`, which clippy fails once it waives
/// nothing.
const IO_MODULES: &[&str] =
    &["rt/src/live.rs", "rt/src/reactor.rs", "rt/src/tcp.rs", "rt/src/transport.rs"];

/// The packages outside every tier: `perf` (the benchmark, its own
/// attributes) and `sys` (the one `unsafe` crate, its own lint table).
const UNTIERED: &[&str] = &["perf", "sys"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every workspace member, by its directory name under `crates/`.
fn packages() -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("list crates") {
        let dir = entry.expect("crate dir").path();
        if dir.join("Cargo.toml").is_file() {
            out.push(dir.file_name().unwrap_or_default().to_string_lossy().into_owned());
        }
    }
    out.sort();
    out
}

/// The crate-root headers live in the manifests: every member but `sys`
/// and `perf` inherits the workspace lints, so a new crate cannot skip
/// them.
#[test]
fn every_member_inherits_the_workspace_lints() {
    for name in packages() {
        let manifest =
            std::fs::read_to_string(root().join("crates").join(&name).join("Cargo.toml"))
                .expect("read manifest");
        if !UNTIERED.contains(&name.as_str()) {
            assert!(manifest.contains("[lints]\nworkspace = true"), "crates/{name}");
        }
    }
}

#[test]
fn every_package_reads_its_tier() {
    let root = root();
    let mut tiered = BTreeSet::new();
    for (file, members) in TIERS {
        let tier = root.join("clippy").join(file).canonicalize().expect("tier file");
        for name in *members {
            let conf = root.join("crates").join(name).join("clippy.toml");
            let link = std::fs::read_link(&conf)
                .unwrap_or_else(|e| panic!("crates/{name}/clippy.toml is no symlink: {e}"));
            assert_eq!(link, Path::new("../../clippy").join(file), "crates/{name}");
            assert_eq!(conf.canonicalize().expect("resolve"), tier, "crates/{name}");
            tiered.insert(*name);
        }
    }
    for name in packages() {
        let conf = root.join("crates").join(&name).join("clippy.toml");
        if UNTIERED.contains(&name.as_str()) {
            assert!(!conf.exists(), "crates/{name} is in no tier");
        } else {
            assert!(tiered.contains(name.as_str()), "crates/{name} has no tier: add it to TIERS");
        }
    }
    // Clippy searches upward for its file: one here would reach `perf`.
    for dir in [root.clone(), root.join("crates")] {
        assert!(!dir.join("clippy.toml").exists() && !dir.join(".clippy.toml").exists());
    }
}

/// The registry tier holds the block rule and the I/O tier the topic
/// rule; the sans-io tier holds both, entry for entry.
#[test]
fn the_tiers_split_one_rule_set() {
    let entries = |file: &str| -> BTreeSet<String> {
        std::fs::read_to_string(root().join("clippy").join(file))
            .expect("read tier file")
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("{ path = "))
            .map(str::to_owned)
            .collect()
    };
    let (block, topic) = (entries("sans-io-registry.toml"), entries("io.toml"));
    assert!(!block.is_empty() && !topic.is_empty());
    assert!(block.is_disjoint(&topic));
    assert_eq!(entries("sans-io.toml"), &block | &topic);
}

/// The lines of `src` (a file at `rel` under `crates/`) that waive a
/// tier rule where no waiver belongs. Code is read blanked, so a comment
/// or a string that names the lint waives nothing. A waiver belongs on
/// one line: an `#![expect]` heading an I/O module, an `#[allow]` right
/// under `#[cfg(test)]`, or anything in a `tests.rs` module file.
fn stray_waivers(rel: &str, src: &str) -> Vec<String> {
    if rel.ends_with("/tests.rs") {
        return Vec::new();
    }
    let code = flux_bench::token::blank(src);
    let lines: Vec<&str> = code.lines().map(str::trim).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.contains("clippy::disallowed_") {
            continue;
        }
        let io = line.starts_with("#![expect(") && IO_MODULES.contains(&rel);
        let test = line.starts_with("#[allow(") && i > 0 && lines[i - 1] == "#[cfg(test)]";
        if !io && !test {
            out.push(format!("crates/{rel}:{}", i + 1));
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("source entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Clippy cannot tell a waiver that belongs from one that hides a
/// violation; this scan can, for the non-test source of the tiers that
/// hold the block rule.
#[test]
fn the_sans_io_source_waives_the_rules_only_in_io_modules_and_tests() {
    let crates = root().join("crates");
    let (mut stray, mut io) = (Vec::new(), BTreeSet::new());
    for (_, members) in &TIERS[..2] {
        for name in *members {
            let mut files = Vec::new();
            rust_files(&crates.join(name).join("src"), &mut files);
            for path in files {
                let rel = path.strip_prefix(&crates).expect("under crates/");
                let rel = rel.to_string_lossy().replace('\\', "/");
                let src = std::fs::read_to_string(&path).expect("read source");
                stray.extend(stray_waivers(&rel, &src));
                let code = flux_bench::token::blank(&src);
                if code.lines().any(|l| l.trim().starts_with("#![expect(clippy::disallowed_")) {
                    io.insert(rel);
                }
            }
        }
    }
    assert!(stray.is_empty(), "waivers outside the I/O modules and tests: {stray:?}");
    assert_eq!(io, IO_MODULES.iter().map(|m| (*m).to_owned()).collect());
}

#[test]
fn a_stray_waiver_is_found_and_a_named_lint_is_not() {
    let doc = "//! `#![allow(clippy::disallowed_types)]` is no waiver\n\
               const WHY: &str = \"#![allow(clippy::disallowed_methods)]\";\n";
    assert!(stray_waivers("kvs/src/lib.rs", doc).is_empty());
    let waiver = "#![allow(clippy::disallowed_types)]\n";
    assert_eq!(stray_waivers("kvs/src/lib.rs", waiver), ["crates/kvs/src/lib.rs:1"]);
    assert!(stray_waivers("rt/src/link/tests.rs", waiver).is_empty());
    let expect = "#![expect(clippy::disallowed_types, reason = \"the I/O tier\")]\n";
    assert!(stray_waivers("rt/src/tcp.rs", expect).is_empty());
    assert_eq!(stray_waivers("rt/src/host.rs", expect).len(), 1);
    let test_mod = "#[cfg(test)]\n#[allow(clippy::disallowed_methods)]\nmod tests {}\n";
    assert!(stray_waivers("sim/src/engine.rs", test_mod).is_empty());
    let untested = "#[allow(clippy::disallowed_methods)]\nfn topic() {}\n";
    assert_eq!(stray_waivers("sim/src/engine.rs", untested).len(), 1);
}
