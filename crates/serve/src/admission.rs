//! Bounded admission queues with load shedding and oldest-tenant-first
//! drain fairness.
//!
//! A resilient server refuses work it cannot serve instead of queueing it
//! unboundedly: each tenant gets its own bounded queue (a noisy neighbor
//! sheds itself, not everyone else), the server enforces a global bound on
//! total queued work, and — because the block cache's resident bytes are
//! the best early-warning signal a paged index has — admission can also
//! shed on cache pressure before the working set starts thrashing. Every
//! shed is a typed [`ServeError::Overloaded`] naming the tripped bound.
//!
//! Draining is **oldest-tenant fair**: work is released in rounds, each
//! round taking one request per tenant, tenants ordered by the arrival of
//! their oldest queued request. A tenant that queued 50 requests first
//! still yields the head of each round to a tenant whose single older
//! request has waited longer — bounded queues plus round-robin drain keep
//! tail latency fair under bursty multi-tenant load.

use crate::error::{OverloadReason, ServeError};
use rsse_sse::SearchToken;
use std::collections::VecDeque;
use std::time::Duration;

/// Admission tuning.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Queued requests allowed per tenant.
    pub per_tenant_queue: usize,
    /// Queued requests allowed server-wide.
    pub max_queued: usize,
    /// When set, admission sheds while the index's block cache reports more
    /// resident bytes than this.
    pub shed_at_resident_bytes: Option<usize>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            per_tenant_queue: 64,
            max_queued: 1024,
            shed_at_resident_bytes: None,
        }
    }
}

/// An admitted request's handle: returned by enqueue, echoed by drain so
/// callers can match outcomes to submissions. Tickets are issued in
/// admission order (monotonically increasing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// One admitted, not-yet-served request.
#[derive(Debug)]
pub(crate) struct Pending {
    pub ticket: Ticket,
    /// Kept for Debug output and the fairness tests; serving itself only
    /// needs the ticket once the drain order is fixed.
    #[cfg_attr(not(test), allow(dead_code))]
    pub tenant: String,
    pub tokens: Vec<SearchToken>,
    /// Absolute deadline (server-clock reading) fixed at admission, so
    /// queue wait counts against the request's deadline.
    pub deadline: Option<Duration>,
}

/// The cache-pressure shed of queued and direct requests alike: `tenant`
/// is shed typed while the block cache holds more than
/// [`shed_at_resident_bytes`](AdmissionConfig::shed_at_resident_bytes).
/// Residency is sampled only when a limit is set, and the queue depth the
/// error reports only when it sheds.
pub(crate) fn shed_on_pressure(
    config: &AdmissionConfig,
    tenant: &str,
    resident_bytes: impl FnOnce() -> usize,
    queued: impl FnOnce() -> usize,
) -> Result<(), ServeError> {
    match config.shed_at_resident_bytes {
        Some(limit) if resident_bytes() > limit => Err(ServeError::Overloaded {
            tenant: tenant.to_string(),
            reason: OverloadReason::CachePressure,
            queued: queued(),
            limit,
        }),
        _ => Ok(()),
    }
}

/// The bounded multi-tenant queue. Callers hold it behind a mutex; all
/// methods are plain `&mut self`.
#[derive(Debug, Default)]
pub(crate) struct AdmissionQueue {
    config: AdmissionConfig,
    next_ticket: u64,
    queued: usize,
    /// Per-tenant FIFO queues, in first-arrival order of the tenants.
    tenants: Vec<(String, VecDeque<Pending>)>,
}

impl AdmissionQueue {
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Requests queued server-wide.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Admits one request or sheds it with a typed overload error.
    /// `resident_bytes` is the caller-sampled cache residency used for the
    /// pressure check.
    pub fn enqueue(
        &mut self,
        tenant: &str,
        tokens: Vec<SearchToken>,
        deadline: Option<Duration>,
        resident_bytes: usize,
    ) -> Result<Ticket, ServeError> {
        shed_on_pressure(&self.config, tenant, || resident_bytes, || self.queued)?;
        if self.queued >= self.config.max_queued {
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                reason: OverloadReason::GlobalQueueFull,
                queued: self.queued,
                limit: self.config.max_queued,
            });
        }
        let queue = match self.tenants.iter_mut().position(|(name, _)| name == tenant) {
            Some(i) => &mut self.tenants[i].1,
            None => {
                self.tenants.push((tenant.to_string(), VecDeque::new()));
                &mut self.tenants.last_mut().expect("just pushed").1
            }
        };
        if queue.len() >= self.config.per_tenant_queue {
            return Err(ServeError::Overloaded {
                tenant: tenant.to_string(),
                reason: OverloadReason::TenantQueueFull,
                queued: self.queued,
                limit: self.config.per_tenant_queue,
            });
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        queue.push_back(Pending {
            ticket,
            tenant: tenant.to_string(),
            tokens,
            deadline,
        });
        self.queued += 1;
        Ok(ticket)
    }

    /// Empties the queue into serving order: rounds of one request per
    /// tenant, tenants ordered within each round by their oldest queued
    /// ticket — so the tenant who has waited longest leads every round.
    pub fn drain_plan(&mut self) -> Vec<Pending> {
        let mut plan = Vec::with_capacity(self.queued);
        while self.queued > 0 {
            // Order this round's participants by their head ticket.
            let mut heads: Vec<(u64, usize)> = self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(i, (_, q))| q.front().map(|p| (p.ticket.0, i)))
                .collect();
            heads.sort_unstable();
            for (_, i) in heads {
                let pending = self.tenants[i].1.pop_front().expect("head just observed");
                self.queued -= 1;
                plan.push(pending);
            }
        }
        self.tenants.retain(|(_, q)| !q.is_empty());
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks() -> Vec<SearchToken> {
        Vec::new()
    }

    #[test]
    fn per_tenant_bound_sheds_only_the_noisy_tenant() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            per_tenant_queue: 2,
            max_queued: 100,
            shed_at_resident_bytes: None,
        });
        q.enqueue("loud", toks(), None, 0).unwrap();
        q.enqueue("loud", toks(), None, 0).unwrap();
        match q.enqueue("loud", toks(), None, 0) {
            Err(ServeError::Overloaded {
                reason: OverloadReason::TenantQueueFull,
                tenant,
                limit: 2,
                ..
            }) => assert_eq!(tenant, "loud"),
            other => panic!("expected tenant shed, got {other:?}"),
        }
        q.enqueue("quiet", toks(), None, 0)
            .expect("other tenants admit fine");
        assert_eq!(q.queued(), 3);
    }

    #[test]
    fn global_bound_and_cache_pressure_shed_typed() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            per_tenant_queue: 10,
            max_queued: 2,
            shed_at_resident_bytes: Some(1000),
        });
        q.enqueue("a", toks(), None, 0).unwrap();
        q.enqueue("b", toks(), None, 0).unwrap();
        assert!(matches!(
            q.enqueue("c", toks(), None, 0),
            Err(ServeError::Overloaded {
                reason: OverloadReason::GlobalQueueFull,
                ..
            })
        ));
        let mut fresh = AdmissionQueue::new(AdmissionConfig {
            shed_at_resident_bytes: Some(1000),
            ..AdmissionConfig::default()
        });
        assert!(matches!(
            fresh.enqueue("a", toks(), None, 1001),
            Err(ServeError::Overloaded {
                reason: OverloadReason::CachePressure,
                limit: 1000,
                ..
            })
        ));
        fresh
            .enqueue("a", toks(), None, 1000)
            .expect("at the limit is not over it");
    }

    #[test]
    fn drain_is_oldest_tenant_fair_round_robin() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        // b's burst arrives first, then one old request from a, then more b.
        q.enqueue("b", toks(), None, 0).unwrap(); // t0
        q.enqueue("b", toks(), None, 0).unwrap(); // t1
        q.enqueue("a", toks(), None, 0).unwrap(); // t2
        q.enqueue("b", toks(), None, 0).unwrap(); // t3
        q.enqueue("c", toks(), None, 0).unwrap(); // t4
        let plan = q.drain_plan();
        let order: Vec<(String, u64)> = plan
            .iter()
            .map(|p| (p.tenant.clone(), p.ticket.0))
            .collect();
        // Round 1 heads: b(t0), a(t2), c(t4); round 2: b(t1), a empty, c
        // empty; round 3: b(t3).
        assert_eq!(
            order,
            vec![
                ("b".into(), 0),
                ("a".into(), 2),
                ("c".into(), 4),
                ("b".into(), 1),
                ("b".into(), 3),
            ]
        );
        assert_eq!(q.queued(), 0);
        assert!(q.drain_plan().is_empty());
    }
}
