//! Concurrency stress: application threads drive the parallel runtime
//! through per-node handles — mutation, token traffic, and collections
//! genuinely overlap, and every invariant must still hold.

use std::sync::Arc;

use bmx_repro::prelude::*;
use parking_lot::Mutex;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// A producer on one node and a consumer on another share a linked queue
/// through their [`NodeHandle`]s; garbage from consumed cells is collected
/// while the queue is in active use. The write token on the queue head
/// serializes the two sides; every other operation genuinely overlaps.
/// The run ends with a drain shutdown and the liveness audit.
#[test]
fn producer_consumer_through_node_handles() {
    use std::time::Duration;

    use bmx_repro::bmx::audit;

    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(2));
    let (prod, cons) = (n(0), n(1));
    let (hp, hc) = (pc.handle(prod), pc.handle(cons));
    let bunch = hp.create_bunch().expect("bunch");
    let queue = hp
        .alloc(bunch, &ObjSpec::with_refs(1, &[0]))
        .expect("queue");
    hp.add_root(queue).expect("root");
    hc.map_bunch(bunch, prod).expect("map");
    hc.add_root(queue).expect("root");

    const ITEMS: u64 = 40;
    let producer = std::thread::spawn(move || {
        for i in 0..ITEMS {
            let produce = || -> Result<()> {
                let item = hp.alloc(bunch, &ObjSpec::with_refs(2, &[0]))?;
                hp.write_data(item, 1, i)?;
                hp.acquire_write(queue)?;
                let head = hp.read_ref(queue, 0)?;
                hp.write_ref(item, 0, head)?;
                hp.write_ref(queue, 0, item)?;
                hp.release(queue)
            };
            produce().expect("produce");
        }
    });
    let consumer = std::thread::spawn(move || {
        let mut got = Vec::new();
        let mut spins = 0;
        while got.len() < ITEMS as usize {
            let pop = || -> Result<Option<u64>> {
                hc.acquire_write(queue)?;
                let head = hc.read_ref(queue, 0)?;
                let out = if head.is_null() {
                    None
                } else {
                    hc.acquire_write(head)?;
                    let v = hc.read_data(head, 1)?;
                    let rest = hc.read_ref(head, 0)?;
                    hc.release(head)?;
                    hc.write_ref(queue, 0, rest)?;
                    Some(v)
                };
                hc.release(queue)?;
                Ok(out)
            };
            match pop().expect("consume") {
                Some(v) => got.push(v),
                None => {
                    spins += 1;
                    assert!(spins < 100_000, "consumer starved");
                    std::thread::yield_now();
                }
            }
            // Periodic housekeeping on the consumer's replica.
            if got.len() % 10 == 5 {
                hc.run_bgc(bunch).expect("gc");
            }
        }
        got
    });
    producer.join().expect("producer");
    let got = consumer.join().expect("consumer");
    assert_eq!(got.len(), ITEMS as usize);
    // All items seen exactly once (order may interleave).
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..ITEMS).collect::<Vec<_>>());

    pc.handle(prod).run_bgc(bunch).expect("final gc");
    pc.handle(cons).run_bgc(bunch).expect("final gc");
    assert!(
        pc.quiesce(Duration::from_secs(10)),
        "cluster failed to quiesce"
    );
    let (cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.dropped, 0, "drain must not drop: {report:?}");
    cluster.assert_gc_acquired_no_tokens();
    audit::assert_no_premature_reclamation(&cluster, &[(prod, queue), (cons, queue)]);
}

/// Mixed-workload hammer on the real-parallelism runtime
/// (`bmx::parallel`): one mutator thread per node drives its own
/// [`NodeHandle`] — racing write-token increments on a shared counter,
/// allocation churn plus collections in a node-private bunch — while a
/// separate collector thread runs BGCs on the shared bunch from rotating
/// nodes. Operations genuinely overlap:
/// an acquire blocked on a remote grant parks only its own thread while
/// the per-node driver threads move the token traffic. The run is gated
/// by the full audit set: exact counter total, transport conservation
/// (drain leaves nothing dropped or in flight), zero premature
/// reclamation of every root, structural audit clean, and the collector
/// acquired no tokens.
#[test]
fn parallel_runtime_mixed_hammer() {
    use std::time::Duration;

    use bmx_repro::bmx::audit;

    const NODES: u32 = 4;
    const INCS_PER_NODE: u64 = 30;

    let pc = ParallelCluster::spawn(ClusterConfig::with_nodes(NODES));
    let h0 = pc.handle(n(0));
    let shared_bunch = h0.create_bunch().expect("bunch");
    let counter = h0
        .alloc(shared_bunch, &ObjSpec::with_refs(2, &[0]))
        .expect("counter");
    h0.add_root(counter).expect("root");
    for i in 1..NODES {
        let h = pc.handle(n(i));
        h.map_bunch(shared_bunch, n(0)).expect("map");
        h.add_root(counter).expect("root");
    }

    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    // Every root each thread pins, collected for the liveness audit.
    let live: Arc<Mutex<Vec<(NodeId, Addr)>>> =
        Arc::new(Mutex::new((0..NODES).map(|i| (n(i), counter)).collect()));

    let mut threads = Vec::new();
    for w in 0..NODES {
        let h = pc.handle(n(w));
        let failures = Arc::clone(&failures);
        let live = Arc::clone(&live);
        threads.push(std::thread::spawn(move || {
            h.bind_metrics();
            let work = || -> Result<()> {
                // Node-private churn bunch: every allocation that is not
                // `keep` becomes garbage the interleaved BGCs reclaim.
                let mine = h.create_bunch()?;
                let keep = h.alloc(mine, &ObjSpec::with_refs(2, &[0]))?;
                h.add_root(keep)?;
                live.lock().push((h.node(), keep));
                for i in 0..INCS_PER_NODE {
                    let g = h.alloc(mine, &ObjSpec::with_refs(2, &[0]))?;
                    h.write_data(g, 1, i)?;
                    h.acquire_write(counter)?;
                    let v = h.read_data(counter, 1)?;
                    h.write_data(counter, 1, v + 1)?;
                    h.release(counter)?;
                    if i % 8 == 3 {
                        h.run_bgc(mine)?;
                    }
                }
                h.run_bgc(mine)?;
                Ok(())
            };
            if let Err(e) = work() {
                failures.lock().push(format!("node {w}: {e}"));
            }
        }));
    }
    // A collector thread interleaves BGCs on the *shared* bunch from
    // rotating nodes while the increments race.
    {
        let handles: Vec<_> = (0..NODES).map(|i| pc.handle(n(i))).collect();
        let failures = Arc::clone(&failures);
        threads.push(std::thread::spawn(move || {
            for round in 0..12usize {
                let h = &handles[round % NODES as usize];
                if let Err(e) = h.run_bgc(shared_bunch) {
                    failures
                        .lock()
                        .push(format!("shared gc round {round}: {e}"));
                    return;
                }
                std::thread::yield_now();
            }
        }));
    }
    for t in threads {
        t.join().expect("thread");
    }
    assert!(
        failures.lock().is_empty(),
        "failures: {:?}",
        failures.lock()
    );
    assert!(
        pc.ops() > u64::from(NODES) * INCS_PER_NODE,
        "ops under-counted"
    );

    assert!(
        pc.quiesce(Duration::from_secs(10)),
        "cluster failed to quiesce"
    );
    let (mut cluster, report) = pc.shutdown(Shutdown::Drain).expect("drain shutdown");
    assert_eq!(report.dropped, 0, "drain must not drop: {report:?}");
    assert_eq!(
        report.delivered, report.sent,
        "drain must deliver everything: {report:?}"
    );

    // The full audit set on the final state (the returned cluster runs
    // deterministically again, so plain ops work).
    let n0 = n(0);
    cluster.acquire_read(n0, counter).unwrap();
    let total = cluster.read_data(n0, counter, 1).unwrap();
    cluster.release(n0, counter).unwrap();
    assert_eq!(total, u64::from(NODES) * INCS_PER_NODE);
    cluster.assert_gc_acquired_no_tokens();
    audit::assert_no_premature_reclamation(&cluster, &live.lock());
}
