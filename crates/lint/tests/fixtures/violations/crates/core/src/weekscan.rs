//! Helper for the field-receiver L5 fixture: the week scan's ingest
//! panics unconditionally. `ixp-core` is outside the L1/L5 scope, so the
//! only report comes from the supervisor that calls it through a field.

pub struct WeekScan {
    ingested: u64,
}

impl WeekScan {
    pub fn ingest(&mut self, datagram: &[u8]) {
        panic!("probe");
    }
}
