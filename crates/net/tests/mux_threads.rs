//! The multiplexing client starts no thread: a waiting caller reads its
//! own responses, so a window of submits, a flush and their waits run on
//! the caller's thread alone.
//!
//! Its own test binary, holding one test, so no other test's threads come
//! and go in the process whose tasks it counts.

#[cfg(target_os = "linux")]
#[test]
fn a_mux_client_and_a_window_of_waits_start_no_thread() {
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::{bfs, generators, NodeId};
    use hl_net::wire::read_frame;
    use hl_net::{ClientConfig, MuxClient, NetServer, Request, Response, ServerConfig};
    use hl_server::QueryEngine;

    fn tasks() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }

    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let engine =
        QueryEngine::new(PrunedLandmarkLabeling::by_degree(&g).into_labeling(), 2).expect("engine");
    let server =
        NetServer::bind(Arc::new(engine), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || server.serve().expect("serve"));

    // `serve` starts its workers before its loop, and only the loop
    // greets a connection: once a greeting arrives, every daemon thread
    // is up.
    let mut probe = TcpStream::connect(addr).expect("connect");
    read_frame(&mut probe, 1 << 20).expect("server hello");
    let before = tasks();

    let client = MuxClient::connect(addr, ClientConfig::default()).expect("connect");
    let pairs: Vec<(NodeId, NodeId)> = (0..64usize)
        .map(|i| ((i % n) as NodeId, ((i * 7 + 1) % n) as NodeId))
        .collect();
    let ids: Vec<u64> = pairs
        .iter()
        .map(|&(u, v)| client.submit(&Request::Query { u, v }).expect("submit"))
        .collect();
    client.flush().expect("flush");
    for (&(u, v), id) in pairs.iter().zip(ids) {
        let d = match client.wait(id, Duration::from_secs(10)).expect("wait") {
            Response::Distance(d) => d,
            other => panic!("query {u}-{v} answered {other:?}"),
        };
        assert_eq!(d, bfs::bfs_distances(&g, u)[v as usize], "{u}-{v}");
    }
    assert_eq!(
        tasks(),
        before,
        "the mux client's connect, submits, flush and waits changed the thread count"
    );

    drop(client);
    drop(probe);
    stop.stop();
    daemon.join().expect("daemon thread");
}
