//! Shared cluster fixtures for the experiments.

use bmx::{Cluster, ClusterConfig, ObjSpec};
use bmx_common::{Addr, BunchId, NodeId, Result};
use bmx_gc::RelocMode;
use bmx_net::NetworkConfig;
use bmx_workloads::lists;

/// A bunch replicated on `replicas` nodes with an `objects`-cell list whose
/// head is rooted everywhere.
pub struct ReplicatedList {
    /// The cluster (node 0 is the creator).
    pub cluster: Cluster,
    /// The shared bunch.
    pub bunch: BunchId,
    /// The list.
    pub list: lists::ListHandle,
}

/// Builds the standard replicated-list fixture.
pub fn replicated_list(replicas: u32, objects: usize) -> Result<ReplicatedList> {
    replicated_list_with(replicas, objects, RelocMode::Piggyback)
}

/// Builds the fixture with an explicit relocation mode (experiment E3).
pub fn replicated_list_with(
    replicas: u32,
    objects: usize,
    mode: RelocMode,
) -> Result<ReplicatedList> {
    let cfg = ClusterConfig {
        nodes: replicas,
        segment_words: 1 << 16,
        net: NetworkConfig::lossless(1),
        reloc_mode: mode,
        ..Default::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = NodeId(0);
    let bunch = cluster.create_bunch(n0)?;
    let list = lists::build_list(&mut cluster, n0, bunch, objects, 0)?;
    cluster.add_root(n0, list.head);
    for i in 1..replicas {
        cluster.map_bunch(NodeId(i), bunch, n0)?;
        cluster.add_root(NodeId(i), list.head);
    }
    Ok(ReplicatedList {
        cluster,
        bunch,
        list,
    })
}

/// Gives every replica node a read token on every list cell (a warmed-up
/// read-mostly application).
pub fn warm_readers(fx: &mut ReplicatedList) -> Result<()> {
    let n = fx.cluster.nodes();
    for i in 1..n {
        for &cell in &fx.list.cells {
            fx.cluster.acquire_read(NodeId(i), cell)?;
            fx.cluster.release(NodeId(i), cell)?;
        }
    }
    Ok(())
}

/// Allocates `count` immediately unreachable objects at node 0 (garbage
/// fodder for collection benches).
pub fn make_garbage(fx: &mut ReplicatedList, count: usize) -> Result<()> {
    let n0 = NodeId(0);
    for _ in 0..count {
        fx.cluster.alloc(n0, fx.bunch, &ObjSpec::data(2))?;
    }
    Ok(())
}

/// A multi-bunch heap at a single node: `bunches` bunches, each holding an
/// `objects`-cell rooted list. Returns the cluster and bunch ids.
pub fn multi_bunch_heap(bunches: usize, objects: usize) -> Result<(Cluster, Vec<BunchId>)> {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 1,
        segment_words: 1 << 16,
        ..Default::default()
    });
    let n0 = NodeId(0);
    let mut ids = Vec::with_capacity(bunches);
    for _ in 0..bunches {
        let b = cluster.create_bunch(n0)?;
        let list = lists::build_list(&mut cluster, n0, b, objects, 0)?;
        cluster.add_root(n0, list.head);
        ids.push(b);
    }
    Ok((cluster, ids))
}

/// A single-node heap whose bunch A holds `stubs` inter-bunch stubs: a
/// rooted chain of `stubs` holders in A, each referencing its own target
/// in bunch B. Collecting A regenerates every stub, so the cost of
/// `run_bgc(node 0, A)` across sizes shows how publish scales with the
/// stub table. Returns the cluster and A.
pub fn inter_stub_heap(stubs: usize) -> Result<(Cluster, BunchId)> {
    const NEXT: u64 = 0;
    const TARGET: u64 = 1;
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 1,
        segment_words: 1 << 16,
        ..Default::default()
    });
    let n0 = NodeId(0);
    let a = cluster.create_bunch(n0)?;
    let b = cluster.create_bunch(n0)?;
    let spec = ObjSpec::with_refs(2, &[NEXT, TARGET]);
    let mut prev = Addr::NULL;
    for _ in 0..stubs {
        let holder = cluster.alloc(n0, a, &spec)?;
        let target = cluster.alloc(n0, b, &ObjSpec::data(1))?;
        cluster.write_ref(n0, holder, TARGET, target)?;
        if !prev.is_null() {
            cluster.write_ref(n0, holder, NEXT, prev)?;
        }
        prev = holder;
    }
    cluster.add_root(n0, prev);
    Ok((cluster, a))
}

/// Current address of `addr` at `node` (resolves forwarding).
pub fn current(cluster: &Cluster, node: NodeId, addr: Addr) -> Addr {
    cluster.gc.node(node).directory.resolve(addr)
}
