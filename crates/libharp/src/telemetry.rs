//! Client side of the live telemetry stream.
//!
//! [`TelemetrySubscription`] wraps any [`Transport`], sends one
//! [`SubscribeTelemetry`] request, and then yields the daemon's pushed
//! [`TelemetryFrame`]s. The daemon's stream is bounded and drop-oldest:
//! under backpressure it skips pushes and accounts for them in each
//! frame's `dropped_frames`. The subscription enforces that accounting
//! on every delivered frame — `seq` must equal frames delivered so far
//! plus frames dropped so far — so a miscounting producer is surfaced
//! as a protocol error instead of silently skewed rates.
//!
//! Subscriptions are per-connection daemon state: a crashed or restarted
//! daemon forgets its subscribers, and its replacement numbers a fresh
//! stream from `seq 0`. A watcher built with
//! [`TelemetrySubscription::subscribe_with_reconnect`] therefore redials
//! on disconnect, *re-sends the subscription request*, and resets its
//! `delivered`/`dropped` accounting to the new stream — mirroring what
//! [`HarpSession::connect_with_reconnect`](crate::HarpSession::connect_with_reconnect)
//! does for sessions. Without the resubscribe, a resumed connection
//! would sit silent forever; without the reset, the first frame of the
//! new stream would be misdiagnosed as a producer miscount.

use crate::{ReconnectPolicy, Transport};
use harp_proto::{Message, SubscribeTelemetry, TelemetryFrame};
use harp_types::{HarpError, Result};

type TransportFactory<T> = Box<dyn FnMut() -> Result<T> + Send>;

/// An active telemetry subscription over a [`Transport`].
pub struct TelemetrySubscription<T: Transport> {
    transport: T,
    delivered: u64,
    dropped: u64,
    interval_ms: u32,
    include_metrics: bool,
    factory: Option<TransportFactory<T>>,
    policy: ReconnectPolicy,
    rng: u64,
    resubscribes: u64,
}

impl<T: Transport> TelemetrySubscription<T> {
    /// Sends the subscription request; the daemon starts pushing frames
    /// on this connection (the first, a baseline, immediately).
    ///
    /// A subscription connected this way does not survive a daemon
    /// crash — use [`TelemetrySubscription::subscribe_with_reconnect`]
    /// for that.
    ///
    /// # Errors
    ///
    /// Returns the transport's error if the request cannot be sent.
    pub fn subscribe(mut transport: T, interval_ms: u32, include_metrics: bool) -> Result<Self> {
        transport.send(&Message::SubscribeTelemetry(SubscribeTelemetry {
            interval_ms,
            include_metrics,
        }))?;
        Ok(TelemetrySubscription {
            transport,
            delivered: 0,
            dropped: 0,
            interval_ms,
            include_metrics,
            factory: None,
            policy: ReconnectPolicy::default(),
            rng: 1,
            resubscribes: 0,
        })
    }

    /// Like [`TelemetrySubscription::subscribe`], but keeps the transport
    /// `factory` so the watch survives daemon crashes: when
    /// [`next_frame`](TelemetrySubscription::next_frame) hits a
    /// disconnect it redials under the `policy`'s jittered exponential
    /// backoff, re-sends the subscription request on the new connection,
    /// and resets the per-stream `delivered`/`dropped` accounting (the
    /// restarted daemon numbers its fresh stream from `seq 0`).
    ///
    /// # Errors
    ///
    /// As for [`TelemetrySubscription::subscribe`]; the *initial*
    /// connection does not retry.
    pub fn subscribe_with_reconnect(
        mut factory: impl FnMut() -> Result<T> + Send + 'static,
        interval_ms: u32,
        include_metrics: bool,
        policy: ReconnectPolicy,
    ) -> Result<Self> {
        let transport = factory()?;
        let mut sub = TelemetrySubscription::subscribe(transport, interval_ms, include_metrics)?;
        sub.rng = policy.seed.max(1);
        sub.policy = policy;
        sub.factory = Some(Box::new(factory));
        Ok(sub)
    }

    /// Blocks until the next frame arrives, verifying the drop
    /// accounting. Non-frame traffic (the daemon's `Hello` greeting,
    /// unrelated session messages on a shared transport) is skipped. On
    /// a reconnecting subscription a disconnect is absorbed here: the
    /// watch redials, resubscribes, and delivers the new stream's first
    /// frame as if nothing happened (observable via
    /// [`resubscribes`](TelemetrySubscription::resubscribes)).
    ///
    /// # Errors
    ///
    /// Returns [`HarpError::Protocol`] when the daemon reports an error
    /// or a frame's `seq`/`dropped_frames` accounting does not add up;
    /// transport errors pass through (after the retry budget is
    /// exhausted, for reconnecting subscriptions).
    pub fn next_frame(&mut self) -> Result<TelemetryFrame> {
        loop {
            let msg = match self.transport.recv() {
                Ok(msg) => msg,
                Err(e) if e.is_disconnect() && self.factory.is_some() => {
                    self.resubscribe(&e)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match msg {
                Message::TelemetryFrame(f) => {
                    if f.seq != self.delivered + f.dropped_frames {
                        return Err(HarpError::protocol(format!(
                            "telemetry frame miscount: seq {} != {} delivered + {} dropped",
                            f.seq, self.delivered, f.dropped_frames
                        )));
                    }
                    if f.dropped_frames < self.dropped {
                        return Err(HarpError::protocol(format!(
                            "telemetry dropped_frames went backwards: {} -> {}",
                            self.dropped, f.dropped_frames
                        )));
                    }
                    self.delivered += 1;
                    self.dropped = f.dropped_frames;
                    return Ok(f);
                }
                Message::Error(e) => {
                    return Err(HarpError::protocol(format!(
                        "daemon error {}: {}",
                        e.code, e.detail
                    )))
                }
                _ => continue,
            }
        }
    }

    /// Redials and resubscribes under the backoff policy, resetting the
    /// per-stream accounting on success. `cause` is the disconnect that
    /// triggered the attempt, reported if the budget runs out first.
    fn resubscribe(&mut self, cause: &HarpError) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            let dial: Result<T> = (|| {
                let factory = self
                    .factory
                    .as_mut()
                    .expect("resubscribe requires a transport factory");
                let mut transport = factory()?;
                transport.send(&Message::SubscribeTelemetry(SubscribeTelemetry {
                    interval_ms: self.interval_ms,
                    include_metrics: self.include_metrics,
                }))?;
                Ok(transport)
            })();
            match dial {
                Ok(transport) => {
                    self.transport = transport;
                    // The replacement daemon numbers its stream from
                    // seq 0: stale accounting would flag its very first
                    // frame as a miscount.
                    self.delivered = 0;
                    self.dropped = 0;
                    self.resubscribes += 1;
                    return Ok(());
                }
                Err(e) if e.is_retryable() => {
                    attempt += 1;
                    if attempt >= self.policy.max_retries {
                        return Err(HarpError::disconnected(format!(
                            "telemetry resubscribe budget exhausted after {attempt} attempts \
                             (watch lost to: {cause}; last error: {e})"
                        )));
                    }
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Frames delivered to this subscriber on the current stream.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Frames the daemon reports it dropped on the current stream.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Times the watch redialed and resubscribed after a disconnect.
    pub fn resubscribes(&self) -> u64 {
        self.resubscribes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_proto::{duplex, SessionEnergy};
    use std::time::Duration;

    fn frame(seq: u64, dropped: u64) -> Message {
        Message::TelemetryFrame(TelemetryFrame {
            seq,
            dropped_frames: dropped,
            interval_ms: 100,
            tick_uj: 10,
            idle_uj: 1,
            total_uj: 100,
            sessions: vec![SessionEnergy {
                app_id: 1,
                name: "mg".into(),
                tick_uj: 9,
                total_uj: 90,
                latency_p99_us: 42,
            }],
            metrics_jsonl: String::new(),
        })
    }

    #[test]
    fn frames_with_exact_accounting_flow_through() {
        let (client, server) = duplex();
        let handle = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            assert!(matches!(req, Message::SubscribeTelemetry(_)));
            server.send(&frame(0, 0)).unwrap();
            server.send(&frame(1, 0)).unwrap();
            // Two pushes dropped under backpressure, then a delivered one.
            server.send(&frame(4, 2)).unwrap();
        });
        let mut sub = TelemetrySubscription::subscribe(client, 100, false).unwrap();
        assert_eq!(sub.next_frame().unwrap().seq, 0);
        assert_eq!(sub.next_frame().unwrap().seq, 1);
        let f = sub.next_frame().unwrap();
        assert_eq!((f.seq, f.dropped_frames), (4, 2));
        assert_eq!(sub.delivered(), 3);
        assert_eq!(sub.dropped(), 2);
        handle.join().unwrap();
    }

    #[test]
    fn miscounted_frames_are_a_protocol_error() {
        let (client, server) = duplex();
        let handle = std::thread::spawn(move || {
            let _ = server.recv();
            server.send(&frame(0, 0)).unwrap();
            // seq jumps without the drop being accounted.
            server.send(&frame(5, 1)).unwrap();
        });
        let mut sub = TelemetrySubscription::subscribe(client, 100, false).unwrap();
        sub.next_frame().unwrap();
        let err = sub.next_frame().unwrap_err();
        assert!(err.to_string().contains("miscount"), "{err}");
        handle.join().unwrap();
    }

    /// Kill-the-daemon-mid-watch regression: the watch must redial,
    /// *re-send* the subscription request (a restarted daemon has no
    /// subscribers), and reset its accounting so the new stream's
    /// `seq 0` is not misread as a miscount.
    #[test]
    fn daemon_crash_mid_watch_resubscribes_and_resets_accounting() {
        let (conn_tx, conn_rx) = std::sync::mpsc::channel::<harp_proto::DuplexEndpoint>();
        let factory = move || {
            let (client, server) = duplex();
            conn_tx
                .send(server)
                .map_err(|_| HarpError::other("test daemon gone"))?;
            Ok(client)
        };
        let daemon = std::thread::spawn(move || {
            // Connection 1: a baseline, a frame with drops, then a crash.
            let server = conn_rx.recv().unwrap();
            assert!(matches!(
                server.recv().unwrap(),
                Message::SubscribeTelemetry(_)
            ));
            server.send(&frame(0, 0)).unwrap();
            server.send(&frame(3, 2)).unwrap();
            drop(server); // daemon dies mid-watch
                          // Connection 2: the watcher must subscribe again;
                          // the fresh stream restarts at seq 0.
            let server = conn_rx.recv().unwrap();
            assert!(matches!(
                server.recv().unwrap(),
                Message::SubscribeTelemetry(_)
            ));
            server.send(&frame(0, 0)).unwrap();
            server.send(&frame(1, 0)).unwrap();
        });
        let policy = ReconnectPolicy::new(Duration::from_micros(100), Duration::from_millis(2), 20)
            .with_seed(0xDECAF);
        let mut sub =
            TelemetrySubscription::subscribe_with_reconnect(factory, 100, false, policy).unwrap();
        assert_eq!(sub.next_frame().unwrap().seq, 0);
        let f = sub.next_frame().unwrap();
        assert_eq!((f.seq, f.dropped_frames), (3, 2));
        assert_eq!((sub.delivered(), sub.dropped()), (2, 2));
        // The crash is invisible to the caller: this call redials,
        // resubscribes, and yields the new stream's baseline frame.
        assert_eq!(sub.next_frame().unwrap().seq, 0);
        assert_eq!(sub.resubscribes(), 1);
        assert_eq!(
            (sub.delivered(), sub.dropped()),
            (1, 0),
            "accounting must reset to the new stream"
        );
        assert_eq!(sub.next_frame().unwrap().seq, 1);
        daemon.join().unwrap();
    }

    /// Non-reconnecting subscriptions keep the old contract: a dead
    /// daemon surfaces as the transport's disconnect error.
    #[test]
    fn plain_subscription_surfaces_disconnects() {
        let (client, server) = duplex();
        let handle = std::thread::spawn(move || {
            let _ = server.recv();
            server.send(&frame(0, 0)).unwrap();
        });
        let mut sub = TelemetrySubscription::subscribe(client, 100, false).unwrap();
        sub.next_frame().unwrap();
        handle.join().unwrap();
        assert!(sub.next_frame().is_err());
    }
}
