//! L5 fixture: a supervisor entry point reaches a panic only through a
//! method called on one of its fields (`self.scan.ingest(..)`), resolved
//! across crates by the field's declared type.

use ixp_core::weekscan::WeekScan;

pub struct Supervisor {
    scan: WeekScan,
}

impl Supervisor {
    pub fn offer(&mut self, datagram: &[u8]) {
        self.scan.ingest(datagram);
    }
}
