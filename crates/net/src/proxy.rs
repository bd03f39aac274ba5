//! A TCP-terminating proxy (paper Fig. 2).
//!
//! The proxy accepts a client-side TCP connection, consumes its stream, and
//! re-originates the bytes on a second connection toward the server —
//! exactly what an L7 load balancer does. The paper's point: when the
//! server side is slower than the client side, the proxy faces a forced
//! trade-off:
//!
//! * **unlimited client window** → the proxy's relay buffer grows without
//!   bound at (client rate − server rate);
//! * **bounded relay buffer** → the proxy advertises a shrinking receive
//!   window and the client stalls: requests queued behind the bulk stream
//!   are head-of-line blocked.
//!
//! [`TcpProxyNode`] implements both configurations. The `proxy` topology
//! of the scenario harness (`scenarios/fig2_*.toml`) samples
//! [`buffered_bytes`](TcpProxyNode::buffered_bytes) over time and reports
//! the high-water mark and the bytes relayed.

use mtp_sim::corrupt::admit_terminal;
use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::Time;
use mtp_sim::{Ctx, Node, NodeFault, PortId, RtoTimer};
use mtp_tcp::{ConnMirror, ReceiverConn, SenderConn, TcpConfig};

/// Which side of the proxy a port faces.
const CLIENT_PORT: PortId = PortId(0);
const SERVER_PORT: PortId = PortId(1);

const TOKEN_RTO: u64 = 1;

/// A TCP-terminating relay between a client (port 0) and a server (port 1).
pub struct TcpProxyNode {
    /// Client-side receiving half (terminates the client's connection).
    recv: ReceiverConn,
    /// Server-side sending half (re-originates the stream).
    send: SenderConn,
    /// Cap on bytes held in the relay (`None` = unlimited, advertise an
    /// unlimited client window).
    relay_cap: Option<u64>,
    /// High-water mark of the relay buffer.
    pub max_buffered: u64,
    /// Bytes relayed end to end.
    pub relayed: u64,
    rto: RtoTimer,
    /// Rebuild info for crash/restart: the (post-override) client config,
    /// server config, and connection ids.
    client_cfg: TcpConfig,
    server_cfg: TcpConfig,
    client_conn: u32,
    server_conn: u32,
    /// Crashes survived so far (restarted connections get fresh ids).
    pub crashes: u64,
    /// Relay-buffered bytes destroyed by crashes. This is the paper's
    /// statefulness cost made measurable: a TCP-terminating middlebox that
    /// dies takes its buffered stream with it.
    pub crash_lost_bytes: u64,
    /// Segments rejected by the integrity check: unverifiable headers on
    /// either side, plus payload-damaged data segments on the client side
    /// (the proxy *terminates* that stream — relaying corrupted bytes
    /// onward would launder the damage into the server's copy).
    pub malformed: u64,
    /// Timeout/retransmission totals of server-side connections destroyed
    /// by crashes (the live connection is summed separately at audit time).
    retired_timeouts: u64,
    retired_retransmissions: u64,
    /// Registry mirror of the live server-side connection's counters.
    send_mirror: ConnMirror,
    name: String,
}

impl TcpProxyNode {
    /// A proxy terminating client connection `client_conn` and opening
    /// server connection `server_conn`. `relay_cap` bounds the relay
    /// buffer; when bounded, the client-side receive window is coupled to
    /// the free relay space (`client_cfg.recv_buffer` is overridden).
    pub fn new(
        mut client_cfg: TcpConfig,
        server_cfg: TcpConfig,
        client_conn: u32,
        server_conn: u32,
        relay_cap: Option<u64>,
    ) -> TcpProxyNode {
        client_cfg.recv_buffer = relay_cap;
        let recv = ReceiverConn::new(&client_cfg, client_conn, 2, 1);
        let send = SenderConn::new(server_cfg.clone(), server_conn, 2, 3);
        TcpProxyNode {
            recv,
            send,
            relay_cap,
            max_buffered: 0,
            relayed: 0,
            rto: RtoTimer::default(),
            client_cfg,
            server_cfg,
            client_conn,
            server_conn,
            crashes: 0,
            crash_lost_bytes: 0,
            malformed: 0,
            retired_timeouts: 0,
            retired_retransmissions: 0,
            send_mirror: ConnMirror::default(),
            name: "tcp-proxy".to_string(),
        }
    }

    /// RTO expirations of the server-side connection: the live one plus
    /// those retired by crashes.
    pub fn server_timeouts(&self) -> u64 {
        self.send.stats.timeouts + self.retired_timeouts
    }

    /// Segments the server-side connection retransmitted: the live one
    /// plus those retired by crashes.
    pub fn server_retransmissions(&self) -> u64 {
        self.send.stats.retransmissions + self.retired_retransmissions
    }

    /// Bytes currently buffered inside the proxy: received from the client
    /// but not yet accepted by the server connection's window (its send
    /// backlog), plus anything still in the client-side receive buffer.
    pub fn buffered_bytes(&self) -> u64 {
        self.recv.buffered() + self.send.backlog()
    }

    fn relay(&mut self, now: Time, to_client: &mut Vec<Packet>, to_server: &mut Vec<Packet>) {
        // Move bytes from the client-side receive buffer into the
        // server-side sender. With a bounded relay, only move what keeps
        // the total relay occupancy under the cap — the rest stays in the
        // receive buffer, shrinking the client's advertised window.
        let available = self.recv.available();
        let take = match self.relay_cap {
            None => available,
            Some(cap) => available.min(cap.saturating_sub(self.send.backlog())),
        };
        if take > 0 {
            if let Some(update) = self.recv.app_consume(take) {
                to_client.push(update);
            }
            self.send.app_write(take, now, to_server);
            self.relayed += take;
        }
        self.max_buffered = self.max_buffered.max(self.buffered_bytes());
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>, to_client: Vec<Packet>, to_server: Vec<Packet>) {
        self.send_mirror.sync(ctx, &self.send.stats);
        let now = ctx.now();
        for mut p in to_client {
            p.sent_at = now;
            ctx.send(CLIENT_PORT, p);
        }
        for mut p in to_server {
            p.sent_at = now;
            ctx.send(SERVER_PORT, p);
        }
        // Keep the server-side RTO armed.
        self.rto.sync(ctx, self.send.next_deadline(), TOKEN_RTO);
    }
}

impl Node for TcpProxyNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut to_server = Vec::new();
        self.send.open(ctx.now(), &mut to_server);
        self.flush(ctx, Vec::new(), to_server);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        // The proxy consumes the client stream and re-originates it, so it
        // is an endpoint for integrity purposes: drop unverifiable headers,
        // and drop payload-damaged data without ACKing it — the client's
        // loss recovery retransmits a clean copy.
        let Some(pkt) = admit_terminal(ctx, port, pkt, &mut self.malformed) else {
            return;
        };
        let ce = pkt.ecn.is_ce();
        let Headers::Tcp(hdr) = pkt.headers else {
            return;
        };
        let now = ctx.now();
        let mut to_client = Vec::new();
        let mut to_server = Vec::new();
        if port == CLIENT_PORT {
            let (_newly, reply) = self.recv.on_segment(now, &hdr, ce);
            self.relay(now, &mut to_client, &mut to_server);
            // Reply AFTER relaying so the advertised window reflects the
            // post-relay buffer state.
            if let Some(reply) = reply {
                // Rebuild the window field from current state: app_consume
                // inside relay may have freed space.
                let mut reply = reply;
                if let Headers::Tcp(h) = &mut reply.headers {
                    h.rwnd = self.recv.rwnd().min(u32::MAX as u64) as u32;
                }
                to_client.push(reply);
            }
        } else {
            self.send.on_segment(now, &hdr, &mut to_server);
            self.relay(now, &mut to_client, &mut to_server);
        }
        self.flush(ctx, to_client, to_server);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_RTO {
            return;
        }
        self.rto.fired();
        let mut to_server = Vec::new();
        self.send.on_timer(ctx.now(), &mut to_server);
        self.flush(ctx, Vec::new(), to_server);
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: NodeFault) {
        match fault {
            NodeFault::Crash => {
                // The relay buffer and both connections' state are gone.
                // Push any unmirrored deltas and bank the dying
                // connection's totals before rebuilding resets its stats.
                self.send_mirror.sync(ctx, &self.send.stats);
                self.retired_timeouts += self.send.stats.timeouts;
                self.retired_retransmissions += self.send.stats.retransmissions;
                self.send_mirror = ConnMirror::default();
                self.crashes += 1;
                self.crash_lost_bytes += self.buffered_bytes();
                self.rto.fired();
                self.recv = ReceiverConn::new(&self.client_cfg, self.client_conn, 2, 1);
                self.send = SenderConn::new(
                    self.server_cfg.clone(),
                    // A restarted proxy opens a *new* server-side
                    // connection; reusing the old id would alias sequence
                    // spaces.
                    self.server_conn.wrapping_add(self.crashes as u32),
                    2,
                    3,
                );
            }
            NodeFault::Restart => {
                // Same bring-up path as on_start: open the server-side
                // connection and re-arm the RTO.
                let mut to_server = Vec::new();
                self.send.open(ctx.now(), &mut to_server);
                self.flush(ctx, Vec::new(), to_server);
            }
        }
    }

    fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
        out.malformed += self.malformed;
        out.timeouts += self.server_timeouts();
        out.retransmissions += self.server_retransmissions();
    }

    fn name(&self) -> &str {
        &self.name
    }
}
