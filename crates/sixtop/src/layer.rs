//! The per-node 6P transaction engine.

use std::fmt;

use gtt_net::{NodeId, PeerMap};
use gtt_sim::{SimDuration, SimTime};

use crate::messages::{ReturnCode, SixpBody, SixpMessage};

/// How long a request waits for its response before it is retried.
/// Two slotframes of 32 × 15 ms ≈ 1 s, rounded up generously: 6P cells
/// occur twice per slotframe in GT-TSCH (§IV rule 2).
pub const SIXP_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// How many times a request is retried after its first timeout.
pub const SIXP_MAX_RETRIES: u8 = 2;

/// Events surfaced to the scheduler/engine by the 6P layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SixtopEvent {
    /// A peer's request arrived; the scheduling function must produce a
    /// response body, then call [`SixtopLayer::respond`] echoing `seqnum`.
    Request {
        /// Requesting neighbor.
        from: NodeId,
        /// Sequence number to echo in the response.
        seqnum: u8,
        /// The request body.
        body: SixpBody,
    },
    /// A transaction this node initiated completed successfully.
    Completed {
        /// Responding neighbor.
        peer: NodeId,
        /// The original request.
        request: SixpBody,
        /// The peer's response.
        response: SixpBody,
    },
    /// A transaction failed (timeout after retries, or error code).
    Failed {
        /// The neighbor the transaction was with.
        peer: NodeId,
        /// The original request.
        request: SixpBody,
        /// Failure cause.
        reason: TransactionFailure,
    },
}

/// Why a transaction failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransactionFailure {
    /// No response within the timeout after all retries.
    Timeout,
    /// The peer answered with a non-success return code.
    ErrorCode(ReturnCode),
}

impl fmt::Display for TransactionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionFailure::Timeout => f.write_str("timeout"),
            TransactionFailure::ErrorCode(rc) => write!(f, "peer returned {rc}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Pending {
    request: SixpBody,
    seqnum: u8,
    deadline: SimTime,
    retries_left: u8,
}

/// The 6P sublayer of one node.
///
/// RFC 8480 allows at most one outstanding transaction per neighbor pair;
/// [`SixtopLayer::start_request`] enforces it. Retries re-send the *same*
/// message (same seqnum), so duplicate responses are idempotent.
#[derive(Debug, Clone)]
pub struct SixtopLayer {
    id: NodeId,
    /// Next seqnum per neighbor.
    seqnums: PeerMap<u8>,
    /// Outstanding transactions per neighbor.
    pending: PeerMap<Pending>,
    /// Count of completed/failed transactions (for control-overhead
    /// accounting in the experiments).
    completed: u64,
    failed: u64,
}

impl SixtopLayer {
    /// Creates the layer for node `id`.
    pub fn new(id: NodeId) -> Self {
        SixtopLayer {
            id,
            seqnums: PeerMap::new(),
            pending: PeerMap::new(),
            completed: 0,
            failed: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of successfully completed transactions initiated here.
    pub fn completed_transactions(&self) -> u64 {
        self.completed
    }

    /// Number of failed transactions initiated here.
    pub fn failed_transactions(&self) -> u64 {
        self.failed
    }

    /// True if a transaction with `peer` is in flight.
    pub fn is_busy_with(&self, peer: NodeId) -> bool {
        self.pending.contains(peer)
    }

    /// Starts a transaction with `peer`. Returns the message to enqueue
    /// for transmission, or `None` when a transaction with that peer is
    /// already in flight (the caller should retry later — GT-TSCH's load
    /// balancer simply waits for its next period).
    pub fn start_request(
        &mut self,
        peer: NodeId,
        body: SixpBody,
        now: SimTime,
    ) -> Option<SixpMessage> {
        assert!(body.is_request(), "start_request needs a request body");
        if self.pending.contains(peer) {
            return None;
        }
        let seq = self.seqnums.get_or_insert_with(peer, || 0);
        let seqnum = *seq;
        *seq = seq.wrapping_add(1);
        self.pending.insert(
            peer,
            Pending {
                request: body.clone(),
                seqnum,
                deadline: now + SIXP_TIMEOUT,
                retries_left: SIXP_MAX_RETRIES,
            },
        );
        Some(SixpMessage::new(seqnum, body))
    }

    /// Builds a response to a previously surfaced
    /// [`SixtopEvent::Request`].
    pub fn respond(&self, seqnum: u8, body: SixpBody) -> SixpMessage {
        assert!(!body.is_request(), "respond needs a response body");
        SixpMessage::new(seqnum, body)
    }

    /// Processes a received 6P message from `from`.
    pub fn handle_message(&mut self, from: NodeId, msg: SixpMessage) -> Option<SixtopEvent> {
        if msg.body.is_request() {
            return Some(SixtopEvent::Request {
                from,
                seqnum: msg.seqnum,
                body: msg.body,
            });
        }
        // A response: match it against the pending transaction.
        let pending = self.pending.get(from)?;
        if pending.seqnum != msg.seqnum {
            // Stale/duplicate response; drop silently (RFC 8480 §3.4.4).
            return None;
        }
        let pending = self.pending.remove(from).expect("checked above");
        match msg.body.return_code() {
            Some(rc) if rc.is_success() => {
                self.completed += 1;
                Some(SixtopEvent::Completed {
                    peer: from,
                    request: pending.request,
                    response: msg.body,
                })
            }
            Some(rc) => {
                self.failed += 1;
                Some(SixtopEvent::Failed {
                    peer: from,
                    request: pending.request,
                    reason: TransactionFailure::ErrorCode(rc),
                })
            }
            None => None,
        }
    }

    /// The earliest retry/failure deadline across outstanding
    /// transactions, or `None` when nothing is pending.
    ///
    /// [`SixtopLayer::poll`] is a no-op strictly before this instant, so
    /// an event-driven engine can sleep until it (or until a message
    /// arrives) instead of polling every slot.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.iter().map(|(_, p)| p.deadline).min()
    }

    /// Drives timeouts. Returns retransmissions to enqueue and failure
    /// events for transactions that exhausted their retries.
    pub fn poll(&mut self, now: SimTime) -> (Vec<(NodeId, SixpMessage)>, Vec<SixtopEvent>) {
        let mut resend = Vec::new();
        let mut events = Vec::new();
        let mut drop_keys = Vec::new();

        for (peer, pending) in self.pending.iter_mut() {
            if now < pending.deadline {
                continue;
            }
            if pending.retries_left > 0 {
                pending.retries_left -= 1;
                pending.deadline = now + SIXP_TIMEOUT;
                resend.push((
                    peer,
                    SixpMessage::new(pending.seqnum, pending.request.clone()),
                ));
            } else {
                drop_keys.push(peer);
            }
        }
        for peer in drop_keys {
            let pending = self.pending.remove(peer).expect("key collected above");
            self.failed += 1;
            events.push(SixtopEvent::Failed {
                peer,
                request: pending.request,
                reason: TransactionFailure::Timeout,
            });
        }
        (resend, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::CellSpec;

    fn add_req(n: u16) -> SixpBody {
        SixpBody::AddRequest {
            kind: crate::messages::SixpCellKind::Data,
            num_cells: n,
            cells: vec![CellSpec::new(1, 1)],
        }
    }

    fn add_ok() -> SixpBody {
        SixpBody::AddResponse {
            code: ReturnCode::Success,
            cells: vec![CellSpec::new(1, 1)],
        }
    }

    #[test]
    fn request_response_happy_path() {
        let mut child = SixtopLayer::new(NodeId::new(2));
        let mut parent = SixtopLayer::new(NodeId::new(1));

        let req = child
            .start_request(NodeId::new(1), add_req(2), SimTime::ZERO)
            .unwrap();
        assert!(child.is_busy_with(NodeId::new(1)));

        // Parent surfaces the request to its scheduler…
        let ev = parent.handle_message(NodeId::new(2), req).unwrap();
        let SixtopEvent::Request { from, seqnum, .. } = ev else {
            panic!("expected Request event");
        };
        assert_eq!(from, NodeId::new(2));

        // …which responds.
        let rsp = parent.respond(seqnum, add_ok());
        let ev = child.handle_message(NodeId::new(1), rsp).unwrap();
        assert!(matches!(ev, SixtopEvent::Completed { .. }));
        assert!(!child.is_busy_with(NodeId::new(1)));
        assert_eq!(child.completed_transactions(), 1);
    }

    #[test]
    fn only_one_transaction_per_peer() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        assert!(l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .is_some());
        assert!(l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .is_none());
        // A different peer is fine.
        assert!(l
            .start_request(NodeId::new(3), add_req(1), SimTime::ZERO)
            .is_some());
    }

    #[test]
    fn seqnums_increment_per_peer() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        let m1 = l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .unwrap();
        // Complete it.
        l.handle_message(NodeId::new(1), SixpMessage::new(m1.seqnum, add_ok()));
        let m2 = l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(m2.seqnum, m1.seqnum.wrapping_add(1));
        // Fresh peer starts at 0.
        let m3 = l
            .start_request(NodeId::new(9), add_req(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(m3.seqnum, 0);
    }

    #[test]
    fn stale_response_ignored() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        let m = l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .unwrap();
        let stale = SixpMessage::new(m.seqnum.wrapping_add(5), add_ok());
        assert_eq!(l.handle_message(NodeId::new(1), stale), None);
        assert!(l.is_busy_with(NodeId::new(1)), "transaction still pending");
        // Response from a peer with no transaction is also dropped.
        assert_eq!(
            l.handle_message(NodeId::new(7), SixpMessage::new(0, add_ok())),
            None
        );
    }

    #[test]
    fn error_code_fails_transaction() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        let m = l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .unwrap();
        let rsp = SixpMessage::new(
            m.seqnum,
            SixpBody::AddResponse {
                code: ReturnCode::ErrNoCells,
                cells: vec![],
            },
        );
        let ev = l.handle_message(NodeId::new(1), rsp).unwrap();
        assert!(matches!(
            ev,
            SixtopEvent::Failed {
                reason: TransactionFailure::ErrorCode(ReturnCode::ErrNoCells),
                ..
            }
        ));
        assert_eq!(l.failed_transactions(), 1);
    }

    #[test]
    fn timeout_retries_then_fails() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        let m = l
            .start_request(NodeId::new(1), add_req(1), SimTime::ZERO)
            .unwrap();
        let retries = u64::from(SIXP_MAX_RETRIES);

        // Each timeout retries with the same seqnum while retries last.
        for k in 1..=retries {
            let (resend, events) = l.poll(SimTime::ZERO + SIXP_TIMEOUT * k);
            assert_eq!(resend.len(), 1, "retry {k}");
            assert_eq!(resend[0].1.seqnum, m.seqnum);
            assert!(events.is_empty());
        }

        // The next timeout finds no retry left → failure.
        let (resend, events) = l.poll(SimTime::ZERO + SIXP_TIMEOUT * (retries + 1));
        assert!(resend.is_empty());
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            SixtopEvent::Failed {
                reason: TransactionFailure::Timeout,
                ..
            }
        ));
        assert!(!l.is_busy_with(NodeId::new(1)));
    }

    #[test]
    fn poll_visits_peers_in_id_order() {
        let mut l = SixtopLayer::new(NodeId::new(1));
        for peer in [9, 2, 5] {
            l.start_request(NodeId::new(peer), add_req(1), SimTime::ZERO)
                .unwrap();
        }
        let in_id_order = [2, 5, 9].map(NodeId::new);
        let retries = u64::from(SIXP_MAX_RETRIES);
        for k in 1..=retries {
            let (resend, events) = l.poll(SimTime::ZERO + SIXP_TIMEOUT * k);
            let peers: Vec<NodeId> = resend.iter().map(|&(peer, _)| peer).collect();
            assert_eq!(peers, in_id_order, "retry {k}");
            assert!(events.is_empty());
        }
        let (resend, events) = l.poll(SimTime::ZERO + SIXP_TIMEOUT * (retries + 1));
        assert!(resend.is_empty());
        let failed: Vec<NodeId> = events
            .iter()
            .map(|e| match e {
                SixtopEvent::Failed { peer, .. } => *peer,
                other => panic!("expected a failure, got {other:?}"),
            })
            .collect();
        assert_eq!(failed, in_id_order);
    }

    #[test]
    fn next_deadline_tracks_earliest_pending() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        assert_eq!(l.next_deadline(), None);
        l.start_request(NodeId::new(1), add_req(1), SimTime::ZERO);
        l.start_request(NodeId::new(3), add_req(1), SimTime::from_secs(1));
        assert_eq!(l.next_deadline(), Some(SimTime::ZERO + SIXP_TIMEOUT));
        // Completing the earlier transaction moves the deadline out.
        let m = SixpMessage::new(0, add_ok());
        l.handle_message(NodeId::new(1), m);
        assert_eq!(
            l.next_deadline(),
            Some(SimTime::from_secs(1) + SIXP_TIMEOUT)
        );
    }

    #[test]
    fn poll_before_deadline_is_quiet() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        l.start_request(NodeId::new(1), add_req(1), SimTime::ZERO);
        let (resend, events) = l.poll(SimTime::from_millis(10));
        assert!(resend.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    #[should_panic(expected = "request body")]
    fn start_request_rejects_response_bodies() {
        let mut l = SixtopLayer::new(NodeId::new(2));
        l.start_request(NodeId::new(1), add_ok(), SimTime::ZERO);
    }
}
