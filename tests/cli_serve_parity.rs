//! `picpredict predict` and `POST /predict` answer the same query with
//! the same JSON document: the real binary runs on a trace and models
//! file in a temp dir, the same bytes are ingested by an in-process
//! server, and the parsed answers must agree on every key except the
//! simulator's wall time.
//!
//! In debug builds the serve locks are tracked primitives, so this test
//! also runs the lock-order witness over the requests it sends.

use pic_predict::{FitStrategy, KernelModels, ServeConfig, Server};
use pic_sim::{MiniPic, SimConfig};
use pic_trace::{codec, Precision};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// Any JSON document, kept as the vendored serde value tree.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// The top-level keys of a JSON object, minus the wall-clock one.
fn comparable(text: &str) -> Vec<(String, serde::Value)> {
    let Json(v) = serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let mut map: Vec<_> = v
        .as_map()
        .unwrap_or_else(|| panic!("not an object: {text}"))
        .iter()
        .filter(|(k, _)| k != "des_wall_seconds")
        .cloned()
        .collect();
    map.sort_by(|a, b| a.0.cmp(&b.0));
    map
}

fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let (head, body) = resp.split_once("\r\n\r\n").expect("header terminator");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

/// Pull the string value of `"key":"..."` out of a flat JSON response.
fn json_str_field(body: &str, key: &str) -> String {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker).expect(key) + marker.len();
    let end = body[start..].find('"').unwrap() + start;
    body[start..end].to_string()
}

/// A temporary directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cli_predict_stdout_matches_the_served_predict_body() {
    let cfg = SimConfig {
        ranks: 8,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 300,
        steps: 30,
        sample_interval: 10,
        seed: 11,
        ..SimConfig::default()
    };
    let out = MiniPic::new(cfg).unwrap().run().unwrap();
    let trace_bytes = codec::encode_trace(&out.trace, Precision::F64).unwrap();
    let models_json = KernelModels::fit(&out.recorder, &FitStrategy::Linear, 42)
        .unwrap()
        .to_json();

    let dir =
        TempDir(std::env::temp_dir().join(format!("picpredict-parity-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let trace_path = dir.0.join("t.pictrace");
    let models_path = dir.0.join("models.json");
    std::fs::write(&trace_path, &trace_bytes).unwrap();
    std::fs::write(&models_path, &models_json).unwrap();

    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, body) = post(addr, "/traces", &trace_bytes);
    assert_eq!(status, 200, "{body}");
    let trace_addr = json_str_field(&body, "address");
    let (status, body) = post(addr, "/models", models_json.as_bytes());
    assert_eq!(status, 200, "{body}");
    let models_addr = json_str_field(&body, "address");

    // (sync, mesh, machine): both sync modes with and without a mesh,
    // and one non-default machine preset.
    let cases = [
        ("barrier", None, None),
        ("neighbor", None, None),
        ("barrier", Some("4x4x4"), None),
        ("neighbor", Some("4x4x4"), None),
        ("barrier", None, Some("vulcan")),
    ];
    for (sync, mesh, machine) in cases {
        let mut cli = Command::new(env!("CARGO_BIN_EXE_picpredict"));
        cli.arg("predict")
            .arg("--trace")
            .arg(&trace_path)
            .arg("--models")
            .arg(&models_path)
            .args(["--ranks", "8", "--sync", sync]);
        let mut request = format!(
            "{{\"trace\":\"{trace_addr}\",\"models\":\"{models_addr}\",\"ranks\":8,\"sync\":\"{sync}\""
        );
        if let Some(mesh) = mesh {
            cli.args(["--mesh", mesh]);
            request.push_str(&format!(",\"mesh\":\"{mesh}\""));
        }
        if let Some(machine) = machine {
            cli.args(["--machine", machine]);
            request.push_str(&format!(",\"machine\":\"{machine}\""));
        }
        request.push('}');

        let run = cli.output().expect("run picpredict");
        let stdout = String::from_utf8(run.stdout).unwrap();
        assert!(
            run.status.success(),
            "{request}: picpredict failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let (status, served) = post(addr, "/predict", request.as_bytes());
        assert_eq!(status, 200, "{request}: {served}");

        let (cli_doc, served_doc) = (comparable(&stdout), comparable(&served));
        assert_eq!(cli_doc.len(), 9, "{stdout}");
        assert_eq!(
            cli_doc, served_doc,
            "{request}\ncli: {stdout}\nserve: {served}"
        );
        let sync_value = cli_doc.iter().find(|(k, _)| k == "sync").unwrap();
        assert_eq!(sync_value.1.as_str(), Some(sync));
    }

    server.shutdown();
    pic_types::sync::assert_witness_clean();
}
