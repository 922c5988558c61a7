//! The three files the pipeline writes — the supervisor checkpoint, the
//! flight record and the transport side file — share one sealed frame
//! and differ in magic. Each reader must refuse the other two files on
//! that magic, before it looks at anything else.

use ixp_vantage::core::WeekScan;
use ixp_vantage::netmodel::Week;
use ixp_vantage::obs::journal::{self, EventKind, Journal};
use ixp_vantage::obs::CodecError;
use ixp_vantage::supervisor::{Supervisor, SupervisorConfig};
use ixp_vantage::transport::{TransportConfig, TransportIntake};

fn checkpoint() -> Vec<u8> {
    Supervisor::new(
        WeekScan::new(Week::REFERENCE, 4),
        SupervisorConfig::default(),
    )
    .checkpoint()
}

fn flight() -> Vec<u8> {
    let j = Journal::deterministic();
    j.record(EventKind::Kill, 0, 0, 400, 1);
    j.dump_flight(16)
}

fn transport() -> Vec<u8> {
    let mut t = TransportIntake::new(TransportConfig::default());
    t.offer(1, b"\x00\x00\x00\x05sflow");
    t.save_state()
}

fn read_checkpoint(bytes: &[u8]) -> Result<(), CodecError> {
    Supervisor::restore(bytes, SupervisorConfig::default()).map(drop)
}

fn read_flight(bytes: &[u8]) -> Result<(), CodecError> {
    journal::parse_flight(bytes).map(drop)
}

fn read_transport(bytes: &[u8]) -> Result<(), CodecError> {
    TransportIntake::restore_from(bytes).map(drop)
}

#[test]
fn each_reader_opens_its_own_file() {
    assert_eq!(read_checkpoint(&checkpoint()), Ok(()));
    assert_eq!(read_flight(&flight()), Ok(()));
    assert_eq!(read_transport(&transport()), Ok(()));
}

#[test]
fn each_file_is_rejected_by_the_other_readers_on_its_magic() {
    type Reader = fn(&[u8]) -> Result<(), CodecError>;
    let files: [(&str, Vec<u8>); 3] = [
        ("checkpoint", checkpoint()),
        ("flight", flight()),
        ("transport", transport()),
    ];
    let readers: [(&str, Reader); 3] = [
        ("checkpoint", read_checkpoint),
        ("flight", read_flight),
        ("transport", read_transport),
    ];
    for (file, bytes) in &files {
        for (reader, read) in &readers {
            if file != reader {
                assert_eq!(
                    read(bytes),
                    Err(CodecError::BadMagic),
                    "the {reader} reader accepted or misreported a {file} file"
                );
            }
        }
    }
}
