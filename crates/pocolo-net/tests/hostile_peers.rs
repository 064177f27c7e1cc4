//! Hostile peers against a live cluster daemon: oversize length
//! prefixes, a request dribbled one byte at a time, garbage JSON, a
//! half-written frame, connect-then-vanish peers and a `Complete` for a
//! slot nobody registered. Afterwards the daemon must hold no connection
//! state, every slot must still be vacant, and a well-behaved fleet must
//! finish bit-exact against the replayed reference.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pocolo_faults::RetryPolicy;
use pocolo_net::frame::encode_frame;
use pocolo_net::swarm::{run_swarm, scale_reference, synthetic_metrics, SwarmConfig};
use pocolo_net::wire::read_frame;
use pocolo_net::{
    ClusterConfig, Clusterd, Message, NetError, RpcClient, RunSpec, SlotState, MAX_FRAME_BYTES,
};

const N: usize = 16;
const HEARTBEATS: u64 = 3;
const SEED: u64 = 23;

fn wait_until(what: &str, deadline: Duration, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A raw socket with read deadlines, so a daemon that never answers
/// fails the test instead of hanging it.
fn raw_peer(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn read_reply(stream: &mut TcpStream) -> Message {
    Message::from_value(&read_frame(stream).unwrap()).unwrap()
}

fn frame(raw_len: usize, body: &[u8]) -> Vec<u8> {
    let mut bytes = (raw_len as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

#[test]
fn hostile_peers_leave_the_daemon_clean_for_honest_agents() {
    let run = RunSpec::scale(N, SEED);
    let clusterd = Clusterd::spawn(ClusterConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        Duration::from_secs(30),
        run.clone(),
    ))
    .unwrap();
    let addr = clusterd.local_addr();

    // An idle peer that holds its connection through everything below.
    let idle = raw_peer(addr);

    // Oversize length prefix: byte sync is gone, so the daemon answers
    // with a typed error and hangs up.
    let mut oversize = raw_peer(addr);
    oversize
        .write_all(&((MAX_FRAME_BYTES + 1) as u32).to_be_bytes())
        .unwrap();
    assert!(matches!(read_reply(&mut oversize), Message::Error { .. }));
    let mut rest = [0u8; 1];
    assert_eq!(oversize.read(&mut rest).unwrap(), 0, "daemon hung up");

    // A valid request written one byte at a time is reassembled and
    // answered like any other.
    let mut dribble = raw_peer(addr);
    for byte in encode_frame(&Message::Status.to_value()).unwrap() {
        dribble.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        read_reply(&mut dribble),
        Message::StatusReport {
            expected: N,
            live: 0,
            degraded: 0,
            done: 0,
        }
    );
    drop(dribble);

    // Garbage inside intact framing: malformed JSON, then well-formed
    // JSON that is no message. Each gets an error reply, and the
    // connection keeps serving.
    let mut garbage = raw_peer(addr);
    garbage.write_all(&frame(3, b"]]]")).unwrap();
    assert!(matches!(read_reply(&mut garbage), Message::Error { .. }));
    let bogus = br#"{"v":1,"type":"bogus"}"#;
    garbage.write_all(&frame(bogus.len(), bogus)).unwrap();
    assert!(matches!(read_reply(&mut garbage), Message::Error { .. }));
    garbage
        .write_all(&encode_frame(&Message::Status.to_value()).unwrap())
        .unwrap();
    assert!(matches!(
        read_reply(&mut garbage),
        Message::StatusReport { .. }
    ));
    drop(garbage);

    // A half-written frame, then the peer closes.
    let mut half = raw_peer(addr);
    half.write_all(&frame(100, b"{\"v\":1,\"ty")).unwrap();
    drop(half);

    // Connect-then-vanish peers.
    for _ in 0..32 {
        drop(TcpStream::connect(addr).unwrap());
    }

    // `Complete` for a slot nobody registered is refused, even when it
    // carries exactly the metrics that slot would deliver.
    let mut retry = RetryPolicy::reconnect(1);
    let mut forger = RpcClient::connect(addr, &mut retry, Duration::from_secs(10)).unwrap();
    let err = forger
        .call(&Message::Complete {
            server: 3,
            metrics: Box::new(synthetic_metrics(3, SEED, HEARTBEATS)),
        })
        .unwrap_err();
    assert!(matches!(err, NetError::Remote(_)), "got {err}");
    drop(forger);
    drop(idle);

    // No connection state survives the hostile peers, and no slot was
    // claimed or completed by them.
    wait_until(
        "hostile connections to drain",
        Duration::from_secs(30),
        || clusterd.open_connections() == 0,
    );
    assert!(clusterd
        .slot_states()
        .iter()
        .all(|s| *s == SlotState::Vacant));

    // Honest agents are unaffected: every slot is theirs, and the result
    // is bit-exact against the replayed reference.
    let swarm = run_swarm(&SwarmConfig::new(addr, N, HEARTBEATS, SEED)).unwrap();
    assert!(swarm.agents.iter().all(|a| a.completed));
    assert!(clusterd.wait_done(Duration::from_secs(30)));
    assert_eq!(
        clusterd.result().expect("all slots delivered metrics"),
        scale_reference(&run, HEARTBEATS)
    );
}
