//! Golden digests: the evaluation artifacts are pinned byte-for-byte.
//!
//! The whole campaign at `ExpConfig::quick()` — at the default seeds and at a
//! shifted seed set — must produce exactly the SHA-256 digests recorded
//! below. Any change to the simulation, the experiments, or the CSV
//! formatting shows up here as a digest mismatch; a PR that *means* to
//! change the output must re-pin these constants and say so.
//!
//! SHA-256 is the workspace's one in-tree FIPS 180-4 implementation (the
//! simulation cache's, exported as `wire::content_digest`); it is checked
//! against the standard test vectors first.

use std::path::PathBuf;

use nvp::energy::harvester::SourceKind;
use nvp::experiments::{run_request, CampaignRequest, ExpConfig};

/// Hex SHA-256 through the workspace's one implementation.
mod sha256 {
    pub fn hex(data: &[u8]) -> String {
        nvp::experiments::wire::content_digest(data).iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[test]
fn sha256_matches_fips_vectors() {
    assert_eq!(
        sha256::hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256::hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        sha256::hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
    // Multi-block input (>64 bytes), exercising the chunk loop.
    assert_eq!(sha256::hex(&[b'a'; 200]), sha256::hex(&"a".repeat(200).into_bytes()),);
}

/// `ExpConfig::quick()` at its default seeds (profiles 1,2 / frame 7).
const GOLDEN_QUICK: &[(&str, &str)] = &[
    ("RESULTS.md", "78268c23124a1c62c0658f29e2534c2e7679d857577f50c9d138f8e00f98b2e5"),
    ("f1.csv", "9cbaa881470c9bc1b0e6828622627433ca248c6c22cb9ab03a6b74a1f9f1a772"),
    ("f10.csv", "56af3235ae90e1aa759a6f6d09d2d6b8f85587d0cac37650db15b9021329273f"),
    ("f11.csv", "bae0b4c19dff11fbbef61e57c2918d8434375c1db38e37c284a7881a01f5bdbf"),
    ("f12.csv", "aed4f5a5c7cf9397665e989f22a1bad40e409e0dfc2a71fce0b069e386b76197"),
    ("f1_profile_1.csv", "c0a486e4bf6a8221a851fb50a2a55e24b670a2ae922827889545484adb163c23"),
    ("f1_profile_2.csv", "58890087758b81c4c76af5f50a0a5fb2234af03073a114dd9223d5ec1a0dae92"),
    ("f2.csv", "b75330f03b7b755d6a623d70dfe0af8600c70cedd24aefd5f493839644d5ac21"),
    ("f2h.csv", "a401c181c2eda4ee331d6a8a1d606f81d25af037f6ff370ef8bd35a66b51c9d6"),
    ("f3.csv", "28a7c39da135029504886ba549749aab8b974b1b6ce83c4694dabe7e08ac72a8"),
    ("f4.csv", "7334fe7d1b82952339be97b64c3016a50b272f55a2fa6e7fec18ca891219f6dc"),
    ("f5.csv", "f687e2b501dbd8ab504563424bf8b21b405f18a1f9e507041e597d7deed3c0d9"),
    ("f6.csv", "374d63c7eac56d86f6fc78e1ab38e93b4efb8b971a4c072b56facab7dd3acfb6"),
    ("f7.csv", "3aae5c3f7e427b1f8f69efe4aed97b55743114ab20c0ea10262d5e63c2e1f05a"),
    ("f8.csv", "487f3f61f36ad35b510bcdf9b14ab4d38c66c4f0d410aea322011564494fb62f"),
    ("f9.csv", "f20de2ea09e4d9ddaa8642458d4ed8248fef6d9dacb0bc083bf8d261e401729a"),
    ("t1.csv", "50337ca83cc003a948355e07286931c45f6e989d8423ba3677c1a3c8664f99de"),
    ("t2.csv", "ba4ce41782253c514394d5fc9d589048a04588aa288ed3b437512cbe334434d6"),
    ("t3.csv", "63b03c2b7fc8b59fe3eb0afba8f60267bbc06bf2c010d0f6a06f2f61766f7b86"),
];

/// `ExpConfig::quick()` with `profile_seeds = [3, 4]`, `frame_seed = 11`.
const GOLDEN_SHIFTED: &[(&str, &str)] = &[
    ("RESULTS.md", "185459126e6531519ec369942f53638560146a764a5f7d7ea5d55f0c50e26cbc"),
    ("f1.csv", "4ec4c0e28260df636f41b6d11b09122f163a1e117ace66e86ed166f1605575b0"),
    ("f10.csv", "4ed59152337b3cf2a5f2635af9f7677b179e7b8f9ff719045f5081f7f94f9312"),
    ("f11.csv", "21d1853cc31eb53b41db540e801ab7a0c24d94ee818efa6b5ecffc5fbc5ef700"),
    ("f12.csv", "1ff9ebcf8554d082d5c5aead4ac5202fe7688ff953476f8ebc602c35e35d7483"),
    ("f1_profile_3.csv", "1fbd3cb89d1d97d4d9a6c007a3e5edaeb04222a98b23883877e5352cc69e8aa4"),
    ("f1_profile_4.csv", "47a2ce861e93ae38a1d7ad3ac9de7f71cecfb6594938c1d155fa36774907e9e6"),
    ("f2.csv", "d66a25d68ac764569de3db1b01e64c50e3a0639ca429135e8157dd75cb3ca42f"),
    ("f2h.csv", "4fadd5edb1edf1774c48311a9b55d3dbfae8d0f1a42bcabb069c8f704a7252f0"),
    ("f3.csv", "c06e1e904a51085b759c151d591aafde56347de9cd8e925becb8402b3da23324"),
    ("f4.csv", "f97a5a61e0a0b056c04700c822907b5c0b4880e70eaa85bdf0daf1a6fc2c8418"),
    ("f5.csv", "d844e805d4ad5d4f0d9aa096325a47398aad22dbb28b077046559bf70ac3a1cb"),
    ("f6.csv", "30158130ab5e1855dd82af1919b8c1490cea74d424d02f9a808a94787d570260"),
    ("f7.csv", "4d0f49408a7c8049c9ebcdcdf0e3fe727edeb0d9d88abb32bd9dda0819242214"),
    ("f8.csv", "1ad4bebcb9d002c869d5023cdc0b8f75273388604fb2e29b280d3cc0e78f4df9"),
    ("f9.csv", "bc9305497e173b241bb6b90e537fbd41fda288be3f5966a43b942910196efbaa"),
    ("t1.csv", "50337ca83cc003a948355e07286931c45f6e989d8423ba3677c1a3c8664f99de"),
    ("t2.csv", "ba4ce41782253c514394d5fc9d589048a04588aa288ed3b437512cbe334434d6"),
    ("t3.csv", "b3bfa70b5ec89723ac2e6081544173cfe7490bb8deda7152934e84369cf8a2a3"),
];

/// A temp dir unique to this process and call, so concurrent test
/// invocations never race on `remove_dir_all`.
fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

fn assert_digests(tag: &str, cfg: &ExpConfig, golden: &[(&str, &str)]) {
    let dir = unique_dir("nvp_golden");
    run_request(&CampaignRequest::all(cfg.clone())).unwrap().write(&dir).unwrap();
    let mut actual: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            let digest = sha256::hex(&std::fs::read(e.path()).unwrap());
            (name, digest)
        })
        .collect();
    actual.sort();
    let _ = std::fs::remove_dir_all(&dir);

    let actual_names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(actual_names, golden_names, "{tag}: artifact set changed");
    for ((name, digest), (_, want)) in actual.iter().zip(golden) {
        assert_eq!(
            digest, want,
            "{tag}: {name} changed — evaluation output is no longer byte-identical; \
             if the change is intentional, re-pin the digest"
        );
    }
}

#[test]
fn quick_artifacts_match_golden_digests() {
    assert_digests("quick", &ExpConfig::quick(), GOLDEN_QUICK);
}

#[test]
fn shifted_seed_artifacts_match_golden_digests() {
    let mut cfg = ExpConfig::quick();
    cfg.profile_seeds = vec![3, 4];
    cfg.frame_seed = 11;
    assert_digests("shifted", &cfg, GOLDEN_SHIFTED);
}

/// Sample digests of every trace the registry generates: each source
/// kind at the first profile seed and every wrist-watch profile seed,
/// at the default and quick durations. The sim-cache keys a trace by
/// its spec — kind, seed, duration and a generator version — not by its
/// samples, so a generator edit that changes samples must also bump
/// `TRACE_GEN_VERSION` in `crates/experiments/src/common.rs`, or a
/// persistent cache would serve runs over the old samples. Re-pin these
/// in the same change.
const GOLDEN_TRACES: &[(&str, u64, u64, &str)] = &[
    // (kind, seed, duration_s, digest)
    ("wrist-watch", 1, 10, "56cd89b6c3c6f5b55521762f5a7e386017ed4bfab498ebd2a7a63576dda81334"),
    ("solar-indoor", 1, 10, "46487b58e6cb08e084c01ec6995cee5199f5feca8551be6e1bc1ffd6464cac4d"),
    ("rf-wifi", 1, 10, "68cdc12098f8b3c30c54da3116d9367f040063d479d35f10f9153bdd5d86bae3"),
    ("thermal-body", 1, 10, "0465e987e156d3ebfb10d8eb12802cba98ca56f2d406ee773033698c8d8bdd0f"),
    ("wrist-watch", 2, 10, "5d7d0880dacb4a8e6cfd80cc5721360a1043f3d559f9721cd56a7f6a5eb8b224"),
    ("wrist-watch", 3, 10, "798565f5d8051931de06d2fafc315e25a86f25e41330986d02bc53e66a2a83e8"),
    ("wrist-watch", 4, 10, "5c09fb50939f36f1fefa10aa98ebcec51e5d6e72f7fb7fdfb7b4e187e53c0149"),
    ("wrist-watch", 5, 10, "05dd5b89eaa0ea3e41507a5f625b2d0a3c881e16110b2b940f755e6fc1c02f47"),
    ("wrist-watch", 1, 2, "bffe173f75442b872173635fdb40ac1acbf4db0957fff0da4650b2bc56d03e49"),
    ("solar-indoor", 1, 2, "6a7e84001234c813be8f06aac9078a42811241eb6b11bf8cbbbbd7714005e2b8"),
    ("rf-wifi", 1, 2, "d27ad9f16afe4f9f2af53df56b4b0a2282badeabec5c3e93206d7daa103e171f"),
    ("thermal-body", 1, 2, "7b98c45997e4da36d4076edb2425189b8293b4246dfe4f1cdd9b366a6486df9a"),
    ("wrist-watch", 2, 2, "2b88ce20cfc7baae10fb687cb7ae95b70cd5daaa54b6b811783d1b023e804af9"),
];

/// SHA-256 over `"nvp-simcache/1:trace"`, `dt` and the length (both
/// little-endian `u64`), then every sample's bit pattern: the bytes the
/// sim-cache's `trace_digest` hashes.
fn sample_digest(kind: SourceKind, seed: u64, duration_s: f64) -> String {
    let trace = kind.generate(seed, duration_s);
    let mut bytes = b"nvp-simcache/1:trace".to_vec();
    bytes.extend(trace.dt_s().to_bits().to_le_bytes());
    bytes.extend((trace.len() as u64).to_le_bytes());
    trace.samples().iter().for_each(|s| bytes.extend(s.to_bits().to_le_bytes()));
    sha256::hex(&bytes)
}

#[test]
fn trace_generators_match_golden_digests() {
    let mut specs = Vec::new();
    for cfg in [ExpConfig::default(), ExpConfig::quick()] {
        let first = cfg.profile_seeds[0];
        specs.extend(SourceKind::ALL.map(|kind| (kind, first, cfg.trace_duration_s)));
        specs.extend(
            cfg.profile_seeds[1..]
                .iter()
                .map(|&seed| (SourceKind::WristWatch, seed, cfg.trace_duration_s)),
        );
    }
    let actual: Vec<(&str, u64, u64, String)> = specs
        .iter()
        .map(|&(kind, seed, duration_s)| {
            (kind.name(), seed, duration_s as u64, sample_digest(kind, seed, duration_s))
        })
        .collect();
    let golden: Vec<(&str, u64, u64, String)> =
        GOLDEN_TRACES.iter().map(|&(k, s, d, h)| (k, s, d, h.to_owned())).collect();
    assert_eq!(
        actual, golden,
        "a trace generator's output changed: bump TRACE_GEN_VERSION and re-pin"
    );
}
