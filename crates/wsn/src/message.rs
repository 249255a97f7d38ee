//! Typed broadcast messages.
//!
//! "We let the suppliers categorize and address its data messages to
//! certain 'types', e.g., temperature, humidity, CO₂ concentration, etc,
//! and broadcast data to the wireless channel. All potential consumers
//! fetch data messages from the wireless channel and filter out messages
//! with undesired types." (§IV-A)

use std::fmt;

use bz_simcore::SimTime;

/// Identifier of a network node (a TelosB mote).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id.
    #[must_use]
    pub const fn new(id: u16) -> Self {
        Self(id)
    }

    /// The raw id.
    #[must_use]
    pub const fn get(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The message "types" of §IV-A by which packets are addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// Room/pipe temperature samples, °C.
    Temperature,
    /// Relative-humidity samples, %.
    Humidity,
    /// CO₂ concentration samples, ppm.
    Co2,
    /// Water flow-rate samples, m³/s.
    FlowRate,
    /// Radiant tank supply temperature (T_supp), °C — produced by
    /// Control-C-1, consumed by Control-V-1 (§III-C).
    SupplyTemperature,
    /// Airbox outlet dew point (T_a_dew), °C.
    OutletDewPoint,
    /// A computed control target being disseminated between boards.
    ControlTarget,
    /// An actuation command (fan level, pump voltage) to a driver board.
    Actuation,
}

impl DataType {
    /// True for control-plane types: computed values and commands the
    /// control loops depend on, as opposed to periodic sensor samples. A
    /// lost sample is replaced by the next one a few seconds later, so
    /// data-plane sends stay fire-and-forget (the paper's plain CSMA
    /// behaviour); control-plane sends are worth a bounded retry.
    #[must_use]
    pub fn is_control_plane(self) -> bool {
        matches!(
            self,
            Self::SupplyTemperature | Self::OutletDewPoint | Self::ControlTarget | Self::Actuation
        )
    }

    /// Application payload size for this type, bytes (type tag, source
    /// channel index, timestamp, and an IEEE-754 value).
    #[must_use]
    pub fn payload_bytes(self) -> usize {
        match self {
            // Sensor samples: tag + channel + 4-byte time + 4-byte value.
            Self::Temperature | Self::Humidity | Self::Co2 | Self::FlowRate => 10,
            // Computed values carry a target id as well.
            Self::SupplyTemperature | Self::OutletDewPoint | Self::ControlTarget => 12,
            // Commands carry actuator id + mode + value.
            Self::Actuation => 14,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Temperature => "temperature",
            Self::Humidity => "humidity",
            Self::Co2 => "co2",
            Self::FlowRate => "flow-rate",
            Self::SupplyTemperature => "supply-temperature",
            Self::OutletDewPoint => "outlet-dew-point",
            Self::ControlTarget => "control-target",
            Self::Actuation => "actuation",
        };
        f.write_str(name)
    }
}

/// A broadcast application message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    source: NodeId,
    data_type: DataType,
    /// Logical channel within the type (e.g. which subspace's temperature).
    channel: u16,
    value: f64,
    created_at: SimTime,
}

impl Message {
    /// Creates a message on logical channel 0.
    #[must_use]
    pub fn new(source: NodeId, data_type: DataType, value: f64, created_at: SimTime) -> Self {
        Self::on_channel(source, data_type, 0, value, created_at)
    }

    /// Creates a message on a specific logical channel (e.g. subspace
    /// index or panel index).
    #[must_use]
    pub fn on_channel(
        source: NodeId,
        data_type: DataType,
        channel: u16,
        value: f64,
        created_at: SimTime,
    ) -> Self {
        Self {
            source,
            data_type,
            channel,
            value,
            created_at,
        }
    }

    /// The emitting node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The message type used for filtering.
    #[must_use]
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// The logical channel within the type.
    #[must_use]
    pub fn channel(&self) -> u16 {
        self.channel
    }

    /// The carried value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// When the supplier generated the value.
    #[must_use]
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Application payload size, bytes.
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.data_type.payload_bytes()
    }
}

// --- Checkpoint support --------------------------------------------------

impl bz_state::Persist for NodeId {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put_u16(self.0);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        Ok(Self(r.take_u16()?))
    }
}

bz_state::persist_unit_enum!(DataType {
    Temperature,
    Humidity,
    Co2,
    FlowRate,
    SupplyTemperature,
    OutletDewPoint,
    ControlTarget,
    Actuation,
});
bz_state::persist_struct!(Message {
    source,
    data_type,
    channel,
    value,
    created_at,
});

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [DataType; 8] = [
        DataType::Temperature,
        DataType::Humidity,
        DataType::Co2,
        DataType::FlowRate,
        DataType::SupplyTemperature,
        DataType::OutletDewPoint,
        DataType::ControlTarget,
        DataType::Actuation,
    ];

    #[test]
    fn node_id_round_trip_and_display() {
        let id = NodeId::new(17);
        assert_eq!(id.get(), 17);
        assert_eq!(id.to_string(), "node17");
    }

    #[test]
    fn payload_sizes_fit_an_802154_frame() {
        for t in ALL {
            assert!(t.payload_bytes() <= 102, "{t} too large");
            assert!(t.payload_bytes() >= 8);
        }
    }

    #[test]
    fn message_accessors() {
        let m = Message::on_channel(
            NodeId::new(4),
            DataType::Humidity,
            2,
            55.5,
            SimTime::from_secs(9),
        );
        assert_eq!(m.source(), NodeId::new(4));
        assert_eq!(m.data_type(), DataType::Humidity);
        assert_eq!(m.channel(), 2);
        assert_eq!(m.value(), 55.5);
        assert_eq!(m.created_at(), SimTime::from_secs(9));
        assert_eq!(m.payload_bytes(), DataType::Humidity.payload_bytes());
    }

    #[test]
    fn display_names_are_distinct() {
        let mut names: Vec<String> = ALL.iter().map(ToString::to_string).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
