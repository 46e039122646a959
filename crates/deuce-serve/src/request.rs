//! The service's wire-level unit of work and its deterministic mapping
//! onto simulator trace events.

use deuce_trace::{LineAddr, LineBytes, TraceEvent};

/// One memory request as a tenant submits it.
///
/// This is the serve-layer analogue of [`TraceEvent`], minus the parts
/// the service owns: the issuing core (always 0 — a tenant is one
/// logical memory client) and the sequence number (the request's
/// index in the tenant's accepted stream, assigned as it is applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Read a line (blocks the simulated core like any trace read).
    Read {
        /// Target line.
        addr: LineAddr,
    },
    /// Write a full line image.
    Write {
        /// Target line.
        addr: LineAddr,
        /// New line contents.
        data: LineBytes,
    },
}

impl Request {
    /// Shorthand for a read request.
    #[must_use]
    pub fn read(addr: LineAddr) -> Self {
        Self::Read { addr }
    }

    /// Shorthand for a write request.
    #[must_use]
    pub fn write(addr: LineAddr, data: LineBytes) -> Self {
        Self::Write { addr, data }
    }

    /// The line this request targets.
    #[must_use]
    pub fn addr(&self) -> LineAddr {
        match self {
            Self::Read { addr } | Self::Write { addr, .. } => *addr,
        }
    }
}

/// Maps the `seq`-th accepted request of a tenant to the trace event
/// the tenant's session steps.
///
/// This function *is* the determinism contract: a tenant's serve-side
/// results are bit-identical to feeding
/// `request_event(0, &r0), request_event(1, &r1), …` — its accepted
/// requests in submission order — through a single-threaded
/// [`deuce_sim::Simulator::run_source`] replay. The sequence number
/// doubles as the retired-instruction clock, so simulated timing is a
/// pure function of the request stream, not of shard scheduling.
///
/// # Examples
///
/// ```
/// use deuce_serve::{request_event, Request};
/// use deuce_trace::{LineAddr, TraceEvent};
///
/// let request = Request::read(LineAddr::new(9));
/// assert_eq!(request_event(4, &request), TraceEvent::read(0, 4, LineAddr::new(9)));
/// ```
#[must_use]
pub fn request_event(seq: u64, request: &Request) -> TraceEvent {
    match request {
        Request::Read { addr } => TraceEvent::read(0, seq, *addr),
        Request::Write { addr, data } => TraceEvent::write(0, seq, *addr, *data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_event_pins_core_zero_and_seq_as_instr() {
        let w = Request::write(LineAddr::new(5), [0x5A; 64]);
        let ev = request_event(17, &w);
        assert_eq!(ev, TraceEvent::write(0, 17, LineAddr::new(5), [0x5A; 64]));
        assert_eq!(w.addr(), LineAddr::new(5));
        assert_eq!(Request::read(LineAddr::new(5)).addr(), LineAddr::new(5));
    }
}
