//! L9 fixture: a transport offer path that drops a packet uncounted.

pub struct PacketIntake {
    inbox: Vec<Vec<u8>>,
    shed: u64,
    accepted: u64,
    limit: usize,
}

impl PacketIntake {
    /// Offer one packet; empty packets vanish uncounted (the bug).
    pub fn offer(&mut self, packet: Vec<u8>) -> bool {
        if packet.is_empty() {
            return false;
        }
        if self.inbox.len() >= self.limit {
            self.shed += 1;
            return false;
        }
        self.inbox.push(packet);
        self.accepted += 1;
        true
    }
}
