//! A fleet of [`StoredNode`] processes with stable logical identities.
//!
//! RnB placement is keyed by *server index* (the position in the address
//! list every client shares), so the fleet keeps one slot per logical
//! server. Killing a node leaves its slot empty but remembered; a
//! restart fills the slot with a fresh process — on a fresh OS-chosen
//! port, because rebinding the exact old port can collide with
//! `TIME_WAIT` remnants of the dead process's connections and the
//! harness refuses to sleep-and-retry around that. Clients follow the
//! move via `RnbClient::set_server_addr` (index-keyed placement makes
//! the address irrelevant).
//!
//! Elasticity appends and removes slots at the *end* only: under ranged
//! consistent hashing the server index participates in placement, so
//! removing a middle slot would shift every later index and remap most
//! of the key space, while growing/shrinking at the tail is the minimal
//! remap the paper's §IV deployment story assumes.

use crate::stored::{NodeConfig, StoredNode};
use std::io;
use std::net::SocketAddr;

/// A launched fleet of `rnb-stored` processes.
pub struct Cluster {
    /// One entry per logical server slot; `None` = currently dead.
    nodes: Vec<Option<StoredNode>>,
    /// Last-known address per slot (survives a kill so diagnostics and
    /// restarts can refer to it).
    addrs: Vec<SocketAddr>,
    template: NodeConfig,
}

impl Cluster {
    /// Launch `n` nodes from a shared template (ports always OS-chosen).
    pub fn launch(n: usize, template: NodeConfig) -> io::Result<Cluster> {
        assert!(n > 0, "need at least one node");
        let mut cluster = Cluster {
            nodes: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            template,
        };
        for _ in 0..n {
            cluster.push_node()?;
        }
        Ok(cluster)
    }

    fn push_node(&mut self) -> io::Result<SocketAddr> {
        let mut config = self.template.clone();
        config.port = 0;
        let node = StoredNode::spawn(&config)?;
        let addr = node.addr();
        self.nodes.push(Some(node));
        self.addrs.push(addr);
        Ok(addr)
    }

    /// Number of logical server slots (dead or alive).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no slots.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of slots with a live process.
    pub fn live(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Last-known address of slot `i`.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// The address list clients connect with (order = placement order).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.clone()
    }

    /// Crash slot `i` (SIGKILL, no drain). No-op if already dead.
    pub fn kill(&mut self, i: usize) -> io::Result<()> {
        match self.nodes[i].take() {
            Some(node) => node.kill(),
            None => Ok(()),
        }
    }

    /// Restart a dead slot on a fresh OS-chosen port; returns the new
    /// address (callers repoint their clients with `set_server_addr`).
    pub fn restart(&mut self, i: usize) -> io::Result<SocketAddr> {
        assert!(self.nodes[i].is_none(), "slot {i} is already running");
        let mut config = self.template.clone();
        config.port = 0;
        let node = StoredNode::spawn(&config)?;
        let addr = node.addr();
        self.nodes[i] = Some(node);
        self.addrs[i] = addr;
        Ok(addr)
    }

    /// Scale out: append one node slot; returns its address.
    pub fn add_node(&mut self) -> io::Result<SocketAddr> {
        self.push_node()
    }

    /// Scale in: gracefully retire the *last* slot (see the module docs
    /// for why only the tail may shrink). The slot must be alive.
    pub fn remove_last(&mut self) -> io::Result<()> {
        assert!(self.nodes.len() > 1, "cannot shrink below one node");
        let node = self
            .nodes
            .pop()
            .flatten()
            .ok_or_else(|| io::Error::other("last slot is dead; kill+shrink is unsupported"))?;
        self.addrs.pop();
        node.shutdown_graceful()
    }

    /// Gracefully shut down every live node (kept slots stay, emptied).
    pub fn shutdown_all(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for slot in &mut self.nodes {
            if let Some(node) = slot.take() {
                if let Err(e) = node.shutdown_graceful() {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
