//! Golden digests: the evaluation artifacts are pinned byte-for-byte.
//!
//! `run_all(ExpConfig::quick())` — at the default seeds and at a
//! shifted seed set — must produce exactly the SHA-256 digests recorded
//! below. Any change to the simulation, the experiments, or the CSV
//! formatting shows up here as a digest mismatch; a PR that *means* to
//! change the output must re-pin these constants and say so.
//!
//! SHA-256 is the workspace's one in-tree FIPS 180-4 implementation (the
//! simulation cache's, exported as `wire::content_digest`); it is checked
//! against the standard test vectors first.

use std::path::PathBuf;

use nvp::experiments::{run_all, ExpConfig};

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
    run_all(cfg, &dir).unwrap();
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
