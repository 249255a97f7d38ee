//! The full BubbleZERO closed loop.
//!
//! [`BubbleZeroSystem`] wires the thermal plant, the wireless network, and
//! the two control modules into the system the paper deployed:
//!
//! - battery sensors (ceiling, room, CO₂) sample on the §IV-B periods and
//!   transmit through [`bz_wsn::adaptive::BtAdaptive`] (or a fixed
//!   schedule, for the Fig. 15 comparison), paying for every packet from
//!   an [`bz_wsn::energy::EnergyLedger`];
//! - AC boards broadcast the supply temperature, loop flows, and airbox
//!   outlet conditions on staggered [`bz_wsn::ac_schedule::AcScheduler`]s;
//! - the radiant and ventilation controllers consume **only what arrives
//!   over the simulated air** (plus the pipe sensors wired directly to
//!   their own boards) and produce pump/fan/flap commands;
//! - the plant advances 1 s at a time under those commands.

use bz_psychro::{Celsius, Percent};
use bz_simcore::{EventQueue, Rng, SimDuration, SimTime};
use bz_thermal::plant::{ActuatorCommands, PlantConfig, RadiantLoopCommand, ThermalPlant};
use bz_thermal::sensors::SensorTarget;
use bz_thermal::zone::SubspaceId;
use bz_wsn::ac_schedule::AcScheduler;
use bz_wsn::adaptive::{AdaptiveConfig, BtAdaptive, FixedSchedule};
use bz_wsn::channel::{Delivery, Network, NetworkConfig};
use bz_wsn::energy::{EnergyLedger, EnergyModel};
use bz_wsn::faults::WsnFaultSchedule;
use bz_wsn::histogram::Stability;
use bz_wsn::message::{DataType, Message, NodeId};
use bz_wsn::retry::{ControlRetrier, RetryConfig};
use bz_wsn::sniffer::Sniffer;

use crate::devices::{channels, DeviceRole};
use crate::radiant::{RadiantConfig, RadiantDecision};
use crate::strategy::{ControlStrategy, CycleInputs, ReactiveStrategy};
use crate::supervisor::{SensorHealthSupervisor, SupervisorConfig};
use crate::targets::ComfortTargets;
use crate::ventilation::VentilationDecision;

/// The per-panel safe-mode gauge keys, one per radiant panel, spelled out
/// so a control tick builds no key text.
const SAFE_MODE_KEYS: [&str; 2] = ["supervisor.safe_mode.panel0", "supervisor.safe_mode.panel1"];

/// Transmission policy of the battery devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtMode {
    /// The paper's BT-ADPT adaptive scheme.
    Adaptive,
    /// The fixed comparison scheme: `T_snd = T_spl`.
    Fixed,
}

/// Full-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Occupant comfort targets.
    pub targets: ComfortTargets,
    /// Thermal-plant configuration (weather, disturbances, occupancy).
    pub plant: PlantConfig,
    /// Channel/MAC parameters.
    pub network: NetworkConfig,
    /// Radiant controller tuning.
    pub radiant: RadiantConfig,
    /// Control-cycle period of both modules.
    pub control_period: SimDuration,
    /// Broadcast period of the AC boards.
    pub ac_period: SimDuration,
    /// Battery transmission policy.
    pub bt_mode: BtMode,
    /// Whether to log every BT-ADPT variance decision (Fig. 12–14).
    pub record_decisions: bool,
    /// Whether to run a sniffer node capturing every delivered packet
    /// (the paper's §V measurement methodology).
    pub enable_sniffer: bool,
    /// Per-type sampling-period overrides. §IV-B sets 3 s / 2 s / 4 s for
    /// temperature / humidity / CO₂, but the §V-C networking trial runs
    /// temperature at 2 s (Fig. 14/15); scenarios override here.
    pub sampling_overrides: Vec<(DataType, SimDuration)>,
    /// Scripted network faults (dead motes, degraded links).
    pub wsn_faults: WsnFaultSchedule,
    /// Seed for the network and scheduler randomness (the plant has its
    /// own seed inside `plant`).
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's deployment with the given plant scenario.
    #[must_use]
    pub fn paper_deployment(plant: PlantConfig) -> Self {
        Self {
            targets: ComfortTargets::paper_trial(),
            plant,
            network: NetworkConfig::telosb(),
            radiant: RadiantConfig::default(),
            control_period: SimDuration::from_secs(5),
            ac_period: SimDuration::from_secs(2),
            bt_mode: BtMode::Adaptive,
            record_decisions: false,
            enable_sniffer: false,
            sampling_overrides: Vec::new(),
            wsn_faults: WsnFaultSchedule::none(),
            seed: 0x5EED_0001,
        }
    }

    /// Seeds a run from one number: `seed` drives the network and
    /// scheduler, and the plant's environment stream (weather wander,
    /// sensor noise) gets `seed ^ 0x9E37`.
    #[must_use]
    pub fn with_run_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.plant.seed = seed ^ 0x9E37;
        self
    }

    /// Overrides the sampling period of one data type.
    #[must_use]
    pub fn with_sampling_override(mut self, data_type: DataType, period: SimDuration) -> Self {
        self.sampling_overrides.push((data_type, period));
        self
    }
}

/// What a battery stream measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SensorBinding {
    CeilingTemp { panel: usize, k: usize },
    CeilingHumidity { panel: usize, k: usize },
    RoomTemp(usize),
    RoomHumidity(usize),
    Co2(usize),
}

/// The transmission scheduler of one stream. The adaptive variant is
/// boxed: it carries a sliding window plus a histogram, dwarfing the
/// fixed variant.
#[derive(Debug, Clone)]
enum StreamScheduler {
    Adaptive(Box<BtAdaptive>),
    Fixed(FixedSchedule),
}

/// One battery-powered sensing stream (a device may carry several).
#[derive(Debug)]
struct BtStream {
    node: NodeId,
    device_index: usize,
    binding: SensorBinding,
    data_type: DataType,
    channel: u16,
    scheduler: StreamScheduler,
    sampling_period: SimDuration,
    next_sample: SimTime,
    sent: SentCounter,
}

/// One AC periodic broadcast source.
#[derive(Debug)]
struct AcStream {
    node: NodeId,
    kind: AcKind,
    scheduler: AcScheduler,
    next_fire: SimTime,
    sent: SentCounter,
}

/// A stream's transmissions, published to its node's `wsn.node.<id>.sent`
/// counter by [`BubbleZeroSystem::run_seconds`]. Streams of one device
/// share the key and add to it separately.
#[derive(Debug)]
struct SentCounter {
    /// The key, built once so a publish allocates nothing.
    key: bz_obs::MetricKey,
    /// Transmissions since the last publish.
    unpublished: u64,
}

impl SentCounter {
    fn new(node: NodeId) -> Self {
        Self {
            key: format!("wsn.node.{}.sent", node.get()).into(),
            unpublished: 0,
        }
    }

    fn publish(&mut self, obs: &bz_obs::Handle) {
        if self.unpublished > 0 {
            obs.counter_add_ref(&self.key, self.unpublished);
            self.unpublished = 0;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcKind {
    /// Control-C-1 broadcasting the radiant tank supply temperature.
    SupplyTemp,
    /// Control-C-2 broadcasting its loop flow (panel index).
    LoopFlow(usize),
    /// Control-V-2 broadcasting its airbox outlet temperature+humidity.
    Outlet(usize),
}

/// A device action pending on the system's event queue. AC fire events
/// are invalidated lazily: a contention reschedule updates the stream's
/// `next_fire` and enqueues a fresh event, and a popped event whose time
/// no longer matches `next_fire` is discarded as stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SystemEvent {
    /// Battery stream `index` takes (and maybe transmits) a sample.
    BtSample(usize),
    /// AC stream `index` broadcasts.
    AcFire(usize),
}

/// One logged BT-ADPT decision (Fig. 12–14 raw material).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// When the sample was processed.
    pub at: SimTime,
    /// Index into the system's battery streams.
    pub stream: usize,
    /// The sliding-window variance.
    pub variance: f64,
    /// The λ in force.
    pub lambda: Option<f64>,
    /// The classification made.
    pub classified: Option<Stability>,
    /// The send period after the decision.
    pub send_period: SimDuration,
    /// Whether the packet was transmitted.
    pub transmitted: bool,
}

/// Summary of one battery device for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtDeviceReport {
    /// The mote.
    pub node: NodeId,
    /// Packets transmitted.
    pub transmissions: u64,
    /// Samples taken.
    pub samples: u64,
    /// Energy consumed, J.
    pub consumed_j: f64,
    /// Projected battery lifetime, years.
    pub lifetime_years: Option<f64>,
}

/// The assembled closed-loop system.
#[derive(Debug)]
pub struct BubbleZeroSystem {
    config: SystemConfig,
    plant: ThermalPlant,
    network: Network,
    strategy: Box<dyn ControlStrategy>,
    bt_streams: Vec<BtStream>,
    bt_ledgers: Vec<EnergyLedger>,
    ac_streams: Vec<AcStream>,
    events: EventQueue<SystemEvent>,
    /// Reused scratch buffer for the per-second event drain — cleared and
    /// refilled each tick so steady-state stepping allocates nothing.
    event_buf: Vec<(SimTime, SystemEvent)>,
    /// Reused scratch for the frames the network delivers each second.
    delivery_buf: Vec<Delivery>,
    commands: ActuatorCommands,
    now: SimTime,
    next_control: SimTime,
    last_radiant: [Option<RadiantDecision>; 2],
    last_ventilation: [Option<VentilationDecision>; 4],
    /// Pairing caches for split temperature/humidity messages.
    room_cache: [(Option<Celsius>, Option<Percent>); 4],
    outlet_cache: [(Option<Celsius>, Option<Percent>); 4],
    decision_log: Vec<DecisionRecord>,
    sniffer: Option<Sniffer>,
    supervisor: SensorHealthSupervisor,
    retrier: ControlRetrier,
    /// `events.scheduled()` and `events.popped()` as of the last publish.
    published_events: (u64, u64),
    obs: bz_obs::Handle,
}

impl BubbleZeroSystem {
    /// Builds the system at time zero, recording metrics against the
    /// global `bz_obs` registry.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        Self::with_obs(config, bz_obs::Handle::global())
    }

    /// Builds the system at time zero with every component recording into
    /// `obs`. Independent handles (see [`bz_obs::Handle::isolated`]) give
    /// concurrent systems fully isolated metric state — the foundation of
    /// the parallel sweep runner's determinism guarantee.
    #[must_use]
    pub fn with_obs(config: SystemConfig, obs: bz_obs::Handle) -> Self {
        Self::with_strategy(config, obs, |reactive| Box::new(reactive))
    }

    /// Builds the system with a custom control strategy. The factory
    /// receives the fully wired reactive stack (so wrapper strategies —
    /// e.g. `bz-predict`'s MPC — can delegate to it) and returns the
    /// strategy to install. Everything else — sensors, network, safety
    /// supervision — is identical to [`Self::with_obs`].
    #[must_use]
    pub fn with_strategy(
        config: SystemConfig,
        obs: bz_obs::Handle,
        make_strategy: impl FnOnce(ReactiveStrategy) -> Box<dyn ControlStrategy>,
    ) -> Self {
        let mut rng = Rng::seed_from(config.seed);
        let plant = ThermalPlant::new(config.plant.clone()).with_obs(obs.clone());
        let network = Network::new(config.network, rng.fork())
            .with_obs(obs.clone())
            .with_faults(config.wsn_faults.clone());

        let strategy = make_strategy(ReactiveStrategy::new(&config, *plant.loop_pump(), &obs));

        // Battery devices: 12 ceiling sensors (T+H streams), 4 room
        // sensors (T+H), 4 CO₂ sensors.
        let mut bt_streams = Vec::new();
        let mut bt_ledgers = Vec::new();
        let overrides = config.sampling_overrides.clone();
        let add_device = |role: DeviceRole,
                          bindings: Vec<(SensorBinding, DataType, u16)>,
                          ledgers: &mut Vec<EnergyLedger>,
                          streams: &mut Vec<BtStream>| {
            let device_index = ledgers.len();
            ledgers.push(EnergyLedger::new(EnergyModel::telosb_2aa()));
            for (binding, data_type, channel) in bindings {
                let sampling = overrides
                    .iter()
                    .find(|(t, _)| *t == data_type)
                    .map(|(_, p)| *p)
                    .unwrap_or_else(|| AdaptiveConfig::for_type(data_type).sampling_period);
                let scheduler = match config.bt_mode {
                    BtMode::Adaptive => StreamScheduler::Adaptive(Box::new(
                        BtAdaptive::new(AdaptiveConfig::with_sampling(sampling))
                            .with_obs(obs.clone()),
                    )),
                    BtMode::Fixed => StreamScheduler::Fixed(FixedSchedule::new(sampling)),
                };
                streams.push(BtStream {
                    node: role.node_id(),
                    device_index,
                    binding,
                    data_type,
                    channel,
                    scheduler,
                    sampling_period: sampling,
                    // Stagger initial sampling by node id to avoid a
                    // synchronized burst at t=0.
                    next_sample: SimTime::from_millis(u64::from(role.node_id().get()) * 53),
                    sent: SentCounter::new(role.node_id()),
                });
            }
        };

        for k in 0..12 {
            let panel = k / 6;
            let local = k % 6;
            add_device(
                DeviceRole::CeilingSensor(k),
                vec![
                    (
                        SensorBinding::CeilingTemp { panel, k: local },
                        DataType::Temperature,
                        channels::CEILING_BASE + k as u16,
                    ),
                    (
                        SensorBinding::CeilingHumidity { panel, k: local },
                        DataType::Humidity,
                        channels::CEILING_BASE + k as u16,
                    ),
                ],
                &mut bt_ledgers,
                &mut bt_streams,
            );
        }
        for s in 0..4 {
            add_device(
                DeviceRole::RoomSensor(s),
                vec![
                    (
                        SensorBinding::RoomTemp(s),
                        DataType::Temperature,
                        channels::ROOM_BASE + s as u16,
                    ),
                    (
                        SensorBinding::RoomHumidity(s),
                        DataType::Humidity,
                        channels::ROOM_BASE + s as u16,
                    ),
                ],
                &mut bt_ledgers,
                &mut bt_streams,
            );
        }
        for s in 0..4 {
            add_device(
                DeviceRole::Co2Sensor(s),
                vec![(
                    SensorBinding::Co2(s),
                    DataType::Co2,
                    channels::CO2_BASE + s as u16,
                )],
                &mut bt_ledgers,
                &mut bt_streams,
            );
        }

        // AC broadcasters.
        let mut ac_streams = Vec::new();
        let mut add_ac = |node: NodeId, kind: AcKind, rng: &mut Rng| {
            let scheduler = AcScheduler::new(config.ac_period, rng.fork());
            ac_streams.push(AcStream {
                node,
                kind,
                scheduler,
                next_fire: SimTime::ZERO,
                sent: SentCounter::new(node),
            });
        };
        add_ac(
            DeviceRole::ControlC1(0).node_id(),
            AcKind::SupplyTemp,
            &mut rng,
        );
        for panel in 0..2 {
            add_ac(
                DeviceRole::ControlC2(panel).node_id(),
                AcKind::LoopFlow(panel),
                &mut rng,
            );
        }
        for a in 0..4 {
            add_ac(
                DeviceRole::ControlV2(a).node_id(),
                AcKind::Outlet(a),
                &mut rng,
            );
        }

        // Seed the event queue: one pending action per stream. From here
        // on, every device action flows through the queue in time order
        // (FIFO among same-millisecond ties).
        let mut events = EventQueue::new();
        for (i, stream) in bt_streams.iter().enumerate() {
            events.schedule(stream.next_sample, SystemEvent::BtSample(i));
        }
        for (i, stream) in ac_streams.iter().enumerate() {
            events.schedule(stream.next_fire, SystemEvent::AcFire(i));
        }

        let config2_sniffer = config.enable_sniffer.then(Sniffer::new);
        let supervisor =
            SensorHealthSupervisor::new(SupervisorConfig::default()).with_obs(obs.clone());
        let retrier = ControlRetrier::new(RetryConfig::default()).with_obs(obs.clone());
        let mut system = Self {
            config,
            plant,
            network,
            strategy,
            bt_streams,
            bt_ledgers,
            ac_streams,
            events,
            event_buf: Vec::new(),
            delivery_buf: Vec::new(),
            commands: ActuatorCommands::all_off(),
            now: SimTime::ZERO,
            next_control: SimTime::ZERO,
            last_radiant: [None; 2],
            last_ventilation: [None; 4],
            room_cache: Default::default(),
            outlet_cache: Default::default(),
            decision_log: Vec::new(),
            sniffer: config2_sniffer,
            supervisor,
            retrier,
            published_events: (0, 0),
            obs,
        };
        // Publish the seeded events now, under the handle state they were
        // scheduled in: a handle enabled later never counts them.
        system.publish_counters();
        system
    }

    /// The observability handle this system records into.
    #[must_use]
    pub fn obs(&self) -> &bz_obs::Handle {
        &self.obs
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The thermal plant (ground truth + sensors).
    #[must_use]
    pub fn plant(&self) -> &ThermalPlant {
        &self.plant
    }

    /// The wireless network (sniffer view).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The most recent radiant decisions (one per panel).
    #[must_use]
    pub fn last_radiant_decisions(&self) -> &[Option<RadiantDecision>; 2] {
        &self.last_radiant
    }

    /// The most recent ventilation decisions (one per subspace).
    #[must_use]
    pub fn last_ventilation_decisions(&self) -> &[Option<VentilationDecision>; 4] {
        &self.last_ventilation
    }

    /// The commands currently applied to the plant.
    #[must_use]
    pub fn commands(&self) -> &ActuatorCommands {
        &self.commands
    }

    /// Changes the occupant comfort targets on both control modules (the
    /// occupant turned the thermostat).
    pub fn set_targets(&mut self, targets: ComfortTargets) {
        self.config.targets = targets;
        self.strategy.set_targets(targets);
    }

    /// The installed control strategy's name (`"reactive"` unless a
    /// custom strategy was installed via [`Self::with_strategy`]).
    #[must_use]
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The sniffer capture, if `enable_sniffer` was set.
    #[must_use]
    pub fn sniffer(&self) -> Option<&Sniffer> {
        self.sniffer.as_ref()
    }

    /// The sensor-health supervisor (detection log, safe-mode state).
    #[must_use]
    pub fn supervisor(&self) -> &SensorHealthSupervisor {
        &self.supervisor
    }

    /// The BT-ADPT decision log (empty unless `record_decisions`).
    #[must_use]
    pub fn decision_log(&self) -> &[DecisionRecord] {
        &self.decision_log
    }

    /// Takes ownership of the decision log, leaving it empty.
    pub fn take_decision_log(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decision_log)
    }

    /// Resets the plant's integrated energy meters (start of a
    /// steady-state COP window).
    pub fn plant_mut_reset_meters(&mut self) {
        self.plant.reset_meters();
    }

    /// Number of battery streams (for interpreting the decision log).
    #[must_use]
    pub fn bt_stream_count(&self) -> usize {
        self.bt_streams.len()
    }

    /// Number of device actions pending on the event queue (one per live
    /// stream, plus any stale contention-superseded AC firings).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The data type carried by battery stream `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn bt_stream_type(&self, index: usize) -> DataType {
        self.bt_streams[index].data_type
    }

    /// The battery stream carrying the room-temperature samples of a
    /// subspace (`None` if out of range). Fig. 14 zooms in on subspace 1's.
    #[must_use]
    pub fn room_temperature_stream(&self, subspace: usize) -> Option<usize> {
        self.bt_streams
            .iter()
            .position(|s| s.binding == SensorBinding::RoomTemp(subspace))
    }

    /// Current send period of battery stream `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn bt_stream_send_period(&self, index: usize) -> SimDuration {
        match &self.bt_streams[index].scheduler {
            StreamScheduler::Adaptive(a) => a.send_period(),
            StreamScheduler::Fixed(f) => f.send_period(),
        }
    }

    /// Per-device battery reports.
    #[must_use]
    pub fn bt_device_reports(&self) -> Vec<BtDeviceReport> {
        let mut nodes: Vec<Option<NodeId>> = vec![None; self.bt_ledgers.len()];
        for stream in &self.bt_streams {
            nodes[stream.device_index] = Some(stream.node);
        }
        self.bt_ledgers
            .iter()
            .enumerate()
            .map(|(i, ledger)| BtDeviceReport {
                node: nodes[i].expect("every ledger has a stream"),
                transmissions: ledger.transmissions(),
                samples: ledger.samples(),
                consumed_j: ledger.consumed_j(),
                lifetime_years: ledger.projected_lifetime_years(),
            })
            .collect()
    }

    /// Advances the whole system by `steps` whole seconds, then publishes
    /// the hot counters. The parts count frames, events, accepted readings
    /// and transmissions in plain fields; each count's growth since the
    /// last publish reaches the registry once per call, by the rules in
    /// `docs/OBSERVABILITY.md`.
    pub fn run_seconds(&mut self, steps: u64) {
        self.run_seconds_with(steps, |_| {});
    }

    /// [`Self::run_seconds`], calling `each_second` with the system after
    /// every second; the hot counters are still published once, at the
    /// end of the call.
    pub fn run_seconds_with(&mut self, steps: u64, mut each_second: impl FnMut(&Self)) {
        // The spans of a second borrow this clone, not `self.obs`, so the
        // second can mutate the system while they are open.
        let obs = self.obs.clone();
        for _ in 0..steps {
            self.advance_second(&obs);
            each_second(self);
        }
        self.publish_counters();
    }

    /// Advances the whole system by one second: `run_seconds(1)`.
    pub fn step_second(&mut self) {
        self.run_seconds(1);
    }

    /// Adds each hot count's growth since the last publish to the
    /// registry (see [`Self::run_seconds`]).
    fn publish_counters(&mut self) {
        let now = (self.events.scheduled(), self.events.popped());
        let was = std::mem::replace(&mut self.published_events, now);
        for (key, now, was) in [
            ("simcore.event_queue.scheduled", now.0, was.0),
            ("simcore.event_queue.popped", now.1, was.1),
        ] {
            if now > was {
                self.obs.counter_add(key, now - was);
            }
        }
        self.network.publish_counters();
        self.supervisor.publish_counters();
        for stream in &mut self.bt_streams {
            stream.sent.publish(&self.obs);
        }
        for stream in &mut self.ac_streams {
            stream.sent.publish(&self.obs);
        }
    }

    /// One simulated second: device events, deliveries, the control
    /// cycle and the plant. `obs` is the system's own handle.
    fn advance_second(&mut self, obs: &bz_obs::Handle) {
        let step_span = obs.span("core.step_second", self.now.as_millis());
        let next = self.now + SimDuration::from_secs(1);

        // --- Device events (battery sampling, AC broadcasts) ---------------
        // Drain everything strictly before `next` in global time order;
        // each handled event reschedules its stream's next occurrence.
        let deadline = SimTime::from_millis(next.as_millis() - 1);
        if self.config.plant.scalar_reference {
            // Reference path: the original one-pop-at-a-time loop.
            while let Some((at, event)) = self.events.pop_due(deadline) {
                self.handle_event(event, at);
            }
        } else {
            // Fast path: batch-pop all due events into a reused buffer,
            // then handle them. Every sampling/broadcast period in the
            // deployment is >= 1 s, so handlers reschedule strictly past
            // `deadline` and one drain per tick sees everything the
            // reference loop would, in the same order; the outer loop
            // catches the (config-space only) sub-second case.
            let mut buf = std::mem::take(&mut self.event_buf);
            loop {
                buf.clear();
                if self.events.drain_due_into(deadline, &mut buf) == 0 {
                    break;
                }
                for &(at, event) in &buf {
                    self.handle_event(event, at);
                }
            }
            self.event_buf = buf;
        }

        self.now = next;

        // --- Deliveries and contention feedback -----------------------------
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        deliveries.clear();
        self.network.advance_into(self.now, &mut deliveries);
        for delivery in &deliveries {
            if let Some(sniffer) = &mut self.sniffer {
                sniffer.capture(delivery);
            }
            self.route(delivery.message, delivery.at);
        }
        self.delivery_buf = deliveries;
        let failures = self.network.take_failures();
        for (message, failure) in failures {
            for (i, ac) in self.ac_streams.iter_mut().enumerate() {
                if ac.node == message.source() {
                    ac.scheduler.report_failure(failure);
                    let after = self.now + SimDuration::from_millis(1);
                    ac.next_fire = ac.scheduler.next_fire(after);
                    // The previously queued firing is now stale; enqueue
                    // the adapted one.
                    self.events.schedule(ac.next_fire, SystemEvent::AcFire(i));
                }
            }
            // Control-plane frames additionally get a bounded resend;
            // data-plane samples stay fire-and-forget (paper CSMA).
            self.retrier.on_failure(self.now, message, failure);
        }
        for message in self.retrier.due(self.now) {
            self.network.send(self.now, message);
        }

        // --- Control cycle ----------------------------------------------------
        if self.now >= self.next_control {
            let tick_span = obs.span("core.control_tick", self.now.as_millis());
            self.run_control_cycle();
            self.next_control = self.now + self.config.control_period;
            obs.gauge_set(
                "simcore.event_queue.depth",
                self.now.as_millis(),
                self.events.len() as f64,
            );
            tick_span.exit(self.now.as_millis());
        }

        // --- Plant ---------------------------------------------------------
        self.plant.step(SimDuration::from_secs(1), &self.commands);
        step_span.exit(self.now.as_millis());
    }

    /// Handles one due device event and reschedules its stream.
    fn handle_event(&mut self, event: SystemEvent, at: SimTime) {
        match event {
            SystemEvent::BtSample(i) => {
                self.sample_bt_stream(i, at);
                let period = self.bt_streams[i].sampling_period;
                self.bt_streams[i].next_sample = at + period;
                self.events.schedule(at + period, SystemEvent::BtSample(i));
            }
            SystemEvent::AcFire(i) => {
                if at != self.ac_streams[i].next_fire {
                    // Stale: a contention reschedule superseded this
                    // firing while it sat on the queue.
                    return;
                }
                self.fire_ac_stream(i, at);
                let after = at + SimDuration::from_millis(1);
                let fire = self.ac_streams[i].scheduler.next_fire(after);
                self.ac_streams[i].next_fire = fire;
                self.events.schedule(fire, SystemEvent::AcFire(i));
            }
        }
    }

    /// The plant-side sensing element behind a stream binding.
    fn sensor_target(binding: SensorBinding) -> SensorTarget {
        match binding {
            SensorBinding::CeilingTemp { panel, k }
            | SensorBinding::CeilingHumidity { panel, k } => SensorTarget::Ceiling(panel * 6 + k),
            SensorBinding::RoomTemp(s) | SensorBinding::RoomHumidity(s) => SensorTarget::Room(s),
            SensorBinding::Co2(s) => SensorTarget::Co2(s),
        }
    }

    fn sample_bt_stream(&mut self, index: usize, at: SimTime) {
        let binding = self.bt_streams[index].binding;
        let device = self.bt_streams[index].device_index;
        // A dead or battery-exhausted mote does nothing at all: no
        // sampling, no transmission, no energy draw beyond what it has
        // already spent.
        if self
            .network
            .faults()
            .node_dead(self.bt_streams[index].node, at)
            || self.bt_ledgers[device].exhausted()
        {
            return;
        }
        // A dropped-out sensing element answers nothing: the mote pays
        // for the attempted sampling but has no value to process or send.
        if self.plant.sensor_dropped_out(Self::sensor_target(binding)) {
            self.bt_ledgers[device].record_sample(at);
            return;
        }
        // Single-channel reads: each binding measures one channel of a
        // two-channel sensor, so the unused sibling draw is skipped (the
        // plant falls back to the full pair read whenever fault injection
        // or scalar-reference mode needs it — bit-identity is proven by
        // the plant's parity tests).
        let value = match binding {
            SensorBinding::CeilingTemp { panel, k } => {
                self.plant.read_ceiling_sensor_temp(panel, k).get()
            }
            SensorBinding::CeilingHumidity { panel, k } => {
                self.plant.read_ceiling_sensor_rh(panel, k).get()
            }
            SensorBinding::RoomTemp(s) => {
                self.plant.read_room_temp(SubspaceId::from_index(s)).get()
            }
            SensorBinding::RoomHumidity(s) => {
                self.plant.read_room_rh(SubspaceId::from_index(s)).get()
            }
            SensorBinding::Co2(s) => self.plant.read_co2(SubspaceId::from_index(s)).get(),
        };

        self.bt_ledgers[device].record_sample(at);

        let (transmit, record) = match &mut self.bt_streams[index].scheduler {
            StreamScheduler::Adaptive(scheduler) => {
                let outcome = scheduler.on_sample(at, value);
                let record = outcome.variance.map(|variance| DecisionRecord {
                    at,
                    stream: index,
                    variance,
                    lambda: outcome.lambda,
                    classified: outcome.classified,
                    send_period: outcome.send_period,
                    transmitted: outcome.transmit,
                });
                (outcome.transmit, record)
            }
            StreamScheduler::Fixed(scheduler) => (scheduler.on_sample(), None),
        };
        if self.config.record_decisions {
            if let Some(record) = record {
                self.decision_log.push(record);
            }
        }

        if transmit {
            self.bt_ledgers[device].record_transmission(at);
            let stream = &self.bt_streams[index];
            let message =
                Message::on_channel(stream.node, stream.data_type, stream.channel, value, at);
            self.bt_streams[index].sent.unpublished += 1;
            self.network.send(at, message);
        }
    }

    fn fire_ac_stream(&mut self, index: usize, at: SimTime) {
        let node = self.ac_streams[index].node;
        self.ac_streams[index].sent.unpublished += 1;
        match self.ac_streams[index].kind {
            AcKind::SupplyTemp => {
                let value = self.plant.read_supply_temp().get();
                self.network.send(
                    at,
                    Message::on_channel(
                        node,
                        DataType::SupplyTemperature,
                        channels::SUPPLY_TEMP,
                        value,
                        at,
                    ),
                );
            }
            AcKind::LoopFlow(panel) => {
                let value = self.plant.read_mixed_flow(panel);
                self.network.send(
                    at,
                    Message::on_channel(node, DataType::FlowRate, panel as u16, value, at),
                );
            }
            AcKind::Outlet(a) => {
                let (t, h) = self.plant.read_airbox_outlet(a);
                let channel = channels::OUTLET_BASE + a as u16;
                self.network.send(
                    at,
                    Message::on_channel(node, DataType::Temperature, channel, t.get(), at),
                );
                self.network.send(
                    at,
                    Message::on_channel(node, DataType::Humidity, channel, h.get(), at),
                );
            }
        }
    }

    /// Routes a delivered broadcast into the consumers that filter for its
    /// type (§IV-A's receive-side filtering).
    fn route(&mut self, message: Message, at: SimTime) {
        let now_s = at.as_secs_f64();
        let channel = message.channel();
        // Every delivered reading passes the sensor-health supervisor
        // before any controller sees it; a rejected reading is dropped and
        // the consumer's own staleness cache serves as the
        // last-known-good hold.
        if self
            .supervisor
            .validate(now_s, message.data_type(), channel, message.value())
            .is_err()
        {
            return;
        }
        match message.data_type() {
            DataType::Temperature => {
                if let Some(k) = channel.checked_sub(channels::CEILING_BASE) {
                    if k < 12 {
                        let panel = (k / 6) as usize;
                        self.strategy.reactive_mut().observe_ceiling_temperature(
                            panel,
                            (k % 6) as usize,
                            now_s,
                            Celsius::new(message.value()),
                        );
                        return;
                    }
                }
                if let Some(s) = channel.checked_sub(channels::ROOM_BASE) {
                    if s < 4 {
                        let s = s as usize;
                        let value = Celsius::new(message.value());
                        self.room_cache[s].0 = Some(value);
                        self.strategy.observe_room_temperature(s, now_s, value);
                        self.push_room_pair(s, now_s);
                        return;
                    }
                }
                if let Some(a) = channel.checked_sub(channels::OUTLET_BASE) {
                    if a < 4 {
                        let a = a as usize;
                        self.outlet_cache[a].0 = Some(Celsius::new(message.value()));
                        self.push_outlet_pair(a, now_s);
                    }
                }
            }
            DataType::Humidity => {
                if let Some(k) = channel.checked_sub(channels::CEILING_BASE) {
                    if k < 12 {
                        let panel = (k / 6) as usize;
                        self.strategy.reactive_mut().observe_ceiling_humidity(
                            panel,
                            (k % 6) as usize,
                            now_s,
                            Percent::new(message.value()),
                        );
                        return;
                    }
                }
                if let Some(s) = channel.checked_sub(channels::ROOM_BASE) {
                    if s < 4 {
                        let s = s as usize;
                        self.room_cache[s].1 = Some(Percent::new(message.value()));
                        self.push_room_pair(s, now_s);
                        return;
                    }
                }
                if let Some(a) = channel.checked_sub(channels::OUTLET_BASE) {
                    if a < 4 {
                        let a = a as usize;
                        self.outlet_cache[a].1 = Some(Percent::new(message.value()));
                        self.push_outlet_pair(a, now_s);
                    }
                }
            }
            DataType::Co2 => {
                if let Some(s) = channel.checked_sub(channels::CO2_BASE) {
                    if s < 4 {
                        self.strategy.observe_co2(
                            s as usize,
                            now_s,
                            bz_psychro::Ppm::new(message.value()),
                        );
                    }
                }
            }
            DataType::SupplyTemperature => {
                self.strategy
                    .reactive_mut()
                    .observe_supply_temperature(now_s, Celsius::new(message.value()));
            }
            // Control-C-2's loop-flow broadcast feeds the actuator
            // watchdog (commanded vs sensed flow).
            DataType::FlowRate if channel < 2 => {
                self.supervisor
                    .observe_loop_flow(channel as usize, now_s, message.value());
            }
            // The remaining types are log-only in this deployment
            // (consumed by the sniffer, not by a controller).
            _ => {}
        }
    }

    fn push_room_pair(&mut self, s: usize, now_s: f64) {
        if let (Some(t), Some(h)) = self.room_cache[s] {
            self.strategy.observe_room(s, now_s, t, h);
        }
    }

    fn push_outlet_pair(&mut self, a: usize, now_s: f64) {
        if let (Some(t), Some(h)) = self.outlet_cache[a] {
            self.strategy.reactive_mut().observe_outlet(a, now_s, t, h);
        }
    }

    fn run_control_cycle(&mut self) {
        let now_s = self.now.as_secs_f64();
        let dt_s = self.config.control_period.as_secs_f64();

        // Re-probe any latched pump faults whose lockout has elapsed.
        self.supervisor.begin_control_cycle(now_s);

        // Hand the strategy its per-cycle inputs: the occupancy-sensor
        // stream (schedule-derived, like a PIR array would report) and the
        // supervisor's current trust verdicts on the room-temperature
        // channels, which gate predictive model identification.
        let occupancy = std::array::from_fn(|s| {
            self.config
                .plant
                .occupancy
                .headcount(SubspaceId::from_index(s), self.now)
        });
        let room_trusted = std::array::from_fn(|s| {
            self.supervisor.channel_trusted(
                DataType::Temperature,
                channels::ROOM_BASE + s as u16,
                now_s,
            )
        });
        self.strategy.begin_cycle(&CycleInputs {
            now_s,
            dt_s,
            occupancy,
            room_trusted,
        });

        for (panel, safe_mode_key) in SAFE_MODE_KEYS.into_iter().enumerate() {
            // Pipe sensors are wired straight into Control-C-1.
            let supply = self.plant.read_supply_temp();
            let ret = self.plant.read_return_temp(panel);
            let mixed = self.plant.read_mixed_temp(panel);
            let reactive = self.strategy.reactive_mut();
            reactive.set_pipe_readings(panel, supply, ret);
            reactive.observe_mixed_temp(panel, mixed);
            let decision = self.strategy.decide_radiant(panel, now_s, dt_s);
            // Condensation safe mode: while the panel's dew-margin inputs
            // are untrustworthy or its pump watchdog is latched, the
            // valves stay closed regardless of what the controller wants.
            let safe_mode = self.supervisor.radiant_safe_mode(panel, now_s);
            let command = if safe_mode {
                RadiantLoopCommand::default()
            } else {
                decision.command
            };
            // The watchdog expects the flow a *healthy* loop would deliver
            // for the commanded voltages — the PID's raw flow target can
            // exceed the pumps' rated flow, which is not a fault.
            let pump = bz_thermal::hydronics::Pump::radiant_loop();
            let applied_flow =
                pump.flow(command.supply_voltage) + pump.flow(command.recycle_voltage);
            self.commands.radiant[panel] = command;
            self.supervisor
                .observe_applied_flow(panel, now_s, applied_flow);
            self.obs.gauge_set(
                safe_mode_key,
                self.now.as_millis(),
                f64::from(u8::from(safe_mode)),
            );
            self.last_radiant[panel] = Some(decision);
        }
        for s in 0..4 {
            let decision = self.strategy.decide_ventilation(s, now_s, dt_s);
            self.commands.airboxes[s] = decision.actuation;
            self.last_ventilation[s] = Some(decision);
        }
    }

    // --- Checkpoint support ------------------------------------------------

    /// Serializes the system's entire dynamic state: clock, plant,
    /// network, control strategy, per-stream schedulers, energy ledgers,
    /// event queue, caches, logs, supervisor, retrier, and the metric
    /// registry. Everything derivable from [`SystemConfig`] — stream
    /// wiring, node ids, metric keys, pump curves — is *not* written;
    /// restore rebuilds it through the normal constructor.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.config.targets.save(w);
        self.now.save(w);
        self.next_control.save(w);
        self.plant.save_state(w);
        self.network.save_state(w);
        self.strategy.save_state(w);
        w.put_len(self.bt_streams.len());
        for stream in &self.bt_streams {
            stream.scheduler.save_state(w);
            stream.next_sample.save(w);
        }
        w.put_len(self.bt_ledgers.len());
        for ledger in &self.bt_ledgers {
            ledger.save_state(w);
        }
        w.put_len(self.ac_streams.len());
        for stream in &self.ac_streams {
            stream.scheduler.save_state(w);
            stream.next_fire.save(w);
        }
        self.events.save_state(w);
        self.commands.save(w);
        self.last_radiant.save(w);
        self.last_ventilation.save(w);
        self.room_cache.save(w);
        self.outlet_cache.save(w);
        self.decision_log.save(w);
        self.sniffer.save(w);
        self.supervisor.save_state(w);
        self.retrier.save_state(w);
        self.obs.save_state(w);
    }

    /// Restores the state saved by [`Self::save_state`] into a system
    /// freshly built from the *same* [`SystemConfig`] (and the same
    /// strategy type). After a successful load the system continues
    /// bit-identically to the run that produced the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse, or
    /// [`bz_state::StateError::Invalid`] if the checkpoint's stream
    /// inventory or scheduler kinds disagree with this system's
    /// configuration — restoring into a differently configured system
    /// would silently corrupt the run, so it is rejected up front.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.config.targets = Persist::load(r)?;
        self.strategy.set_targets(self.config.targets);
        self.now = Persist::load(r)?;
        self.next_control = Persist::load(r)?;
        self.plant.load_state(r)?;
        self.network.load_state(r)?;
        self.strategy.load_state(r)?;
        let n_bt = r.take_len()?;
        if n_bt != self.bt_streams.len() {
            return Err(bz_state::StateError::Invalid {
                what: "BubbleZeroSystem",
                reason: format!(
                    "checkpoint has {n_bt} battery streams, this configuration has {}",
                    self.bt_streams.len()
                ),
            });
        }
        for stream in &mut self.bt_streams {
            stream.scheduler.load_state(r)?;
            stream.next_sample = Persist::load(r)?;
        }
        let n_ledgers = r.take_len()?;
        if n_ledgers != self.bt_ledgers.len() {
            return Err(bz_state::StateError::Invalid {
                what: "BubbleZeroSystem",
                reason: format!(
                    "checkpoint has {n_ledgers} battery ledgers, this configuration has {}",
                    self.bt_ledgers.len()
                ),
            });
        }
        for ledger in &mut self.bt_ledgers {
            ledger.load_state(r)?;
        }
        let n_ac = r.take_len()?;
        if n_ac != self.ac_streams.len() {
            return Err(bz_state::StateError::Invalid {
                what: "BubbleZeroSystem",
                reason: format!(
                    "checkpoint has {n_ac} AC streams, this configuration has {}",
                    self.ac_streams.len()
                ),
            });
        }
        for stream in &mut self.ac_streams {
            stream.scheduler.load_state(r)?;
            stream.next_fire = Persist::load(r)?;
        }
        self.events.load_state(r)?;
        let (n_bt, n_ac) = (self.bt_streams.len(), self.ac_streams.len());
        if let Some(event) = self.events.iter().find(|event| match event {
            SystemEvent::BtSample(i) => *i >= n_bt,
            SystemEvent::AcFire(i) => *i >= n_ac,
        }) {
            return Err(bz_state::StateError::Invalid {
                what: "BubbleZeroSystem",
                reason: format!(
                    "queued {event:?} names a stream past this configuration's \
                     {n_bt} battery and {n_ac} AC streams"
                ),
            });
        }
        // A step leaves nothing queued before the clock. A clock restored
        // past the queue would make the next step drain the whole gap.
        if let Some(at) = self.events.peek_time().filter(|&at| at < self.now) {
            return Err(bz_state::StateError::Invalid {
                what: "BubbleZeroSystem",
                reason: format!(
                    "the clock reads {} ms, past the earliest queued event at {} ms",
                    self.now.as_millis(),
                    at.as_millis()
                ),
            });
        }
        self.commands = Persist::load(r)?;
        self.last_radiant = Persist::load(r)?;
        self.last_ventilation = Persist::load(r)?;
        self.room_cache = Persist::load(r)?;
        self.outlet_cache = Persist::load(r)?;
        self.decision_log = Persist::load(r)?;
        self.sniffer = Persist::load(r)?;
        self.supervisor.load_state(r)?;
        self.retrier.load_state(r)?;
        self.obs.load_state(r)?;
        // The restored registry holds the restored counts, so publish only
        // growth from here on. Counts a panicked step left unpublished
        // belong to the replaced state. (The network and supervisor reset
        // their own.)
        self.published_events = (self.events.scheduled(), self.events.popped());
        for stream in &mut self.bt_streams {
            stream.sent.unpublished = 0;
        }
        for stream in &mut self.ac_streams {
            stream.sent.unpublished = 0;
        }
        // Scratch buffers hold no cross-tick state; start them empty.
        self.event_buf.clear();
        self.delivery_buf.clear();
        Ok(())
    }
}

impl StreamScheduler {
    /// Kind tag (0 = adaptive, 1 = fixed) followed by the scheduler state.
    fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        match self {
            Self::Adaptive(a) => {
                w.put_u8(0);
                a.save_state(w);
            }
            Self::Fixed(f) => {
                w.put_u8(1);
                f.save(w);
            }
        }
    }

    /// Restores in place; the checkpoint's kind must match the live
    /// variant (i.e. the restoring process must run the same `bt_mode`).
    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        let tag = r.take_u8()?;
        match (tag, self) {
            (0, Self::Adaptive(a)) => a.load_state(r),
            (1, Self::Fixed(f)) => {
                *f = Persist::load(r)?;
                Ok(())
            }
            (0 | 1, _) => Err(bz_state::StateError::Invalid {
                what: "StreamScheduler",
                reason: "scheduler kind in checkpoint does not match bt_mode".into(),
            }),
            (tag, _) => Err(bz_state::StateError::BadTag {
                what: "StreamScheduler",
                tag: u64::from(tag),
            }),
        }
    }
}

impl bz_state::Persist for SystemEvent {
    fn save(&self, w: &mut bz_state::Writer) {
        match self {
            Self::BtSample(i) => {
                w.put_u8(0);
                w.put_u64(*i as u64);
            }
            Self::AcFire(i) => {
                w.put_u8(1);
                w.put_u64(*i as u64);
            }
        }
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let tag = r.take_u8()?;
        let index = usize::try_from(r.take_u64()?).map_err(|_| bz_state::StateError::Invalid {
            what: "SystemEvent",
            reason: "stream index exceeds usize".into(),
        })?;
        match tag {
            0 => Ok(Self::BtSample(index)),
            1 => Ok(Self::AcFire(index)),
            tag => Err(bz_state::StateError::BadTag {
                what: "SystemEvent",
                tag: u64::from(tag),
            }),
        }
    }
}

bz_state::persist_struct!(DecisionRecord {
    at,
    stream,
    variance,
    lambda,
    classified,
    send_period,
    transmitted,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bz_thermal::disturbance::DisturbanceSchedule;
    use bz_wsn::channel::ChannelStats;

    fn quick_system() -> BubbleZeroSystem {
        BubbleZeroSystem::new(SystemConfig::paper_deployment(
            PlantConfig::bubble_zero_lab(),
        ))
    }

    #[test]
    fn inventory_is_wired() {
        let system = quick_system();
        // 12 ceiling ×2 + 4 room ×2 + 4 CO₂ = 36 battery streams.
        assert_eq!(system.bt_stream_count(), 36);
        // 20 battery devices.
        assert_eq!(system.bt_device_reports().len(), 20);
    }

    #[test]
    fn controllers_receive_data_over_the_air() {
        let mut system = quick_system();
        system.run_seconds(30);
        // After 30 s every controller should have made a live decision.
        for decision in system.last_radiant_decisions() {
            let d = decision.expect("radiant decided");
            assert!(d.ceiling_dew.is_some(), "ceiling data should have arrived");
        }
        for decision in system.last_ventilation_decisions() {
            let d = decision.expect("ventilation decided");
            assert!(d.room_dew.is_some(), "room data should have arrived");
        }
        assert!(system.network().stats().delivered > 50);
    }

    #[test]
    fn closed_loop_cools_and_dries() {
        let mut system = quick_system();
        // 45 simulated minutes.
        system.run_seconds(45 * 60);
        for id in SubspaceId::ALL {
            let t = system.plant().zone_temperature(id).get();
            let dew = system.plant().zone_dew_point(id).get();
            assert!(t < 27.5, "{id} temperature {t}");
            assert!(dew < 24.0, "{id} dew {dew}");
        }
    }

    #[test]
    fn no_condensation_under_closed_loop_control() {
        let mut system = quick_system();
        system.run_seconds(40 * 60);
        assert_eq!(
            system.plant().panel_condensate_total(),
            0.0,
            "anti-condensation control must hold"
        );
    }

    #[test]
    fn battery_devices_pay_for_packets() {
        let mut system = quick_system();
        system.run_seconds(120);
        let reports = system.bt_device_reports();
        for report in &reports {
            assert!(report.samples > 0, "{report:?}");
            assert!(report.consumed_j > 0.0);
        }
        let total_tx: u64 = reports.iter().map(|r| r.transmissions).sum();
        assert!(total_tx > 0);
    }

    #[test]
    fn fixed_mode_transmits_more() {
        let adaptive_cfg = SystemConfig {
            record_decisions: false,
            ..SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab())
        };
        let fixed_cfg = SystemConfig {
            bt_mode: BtMode::Fixed,
            ..adaptive_cfg.clone()
        };
        let mut adaptive = BubbleZeroSystem::new(adaptive_cfg);
        let mut fixed = BubbleZeroSystem::new(fixed_cfg);
        // Run past the BT-ADPT warm-up so the periods have stretched.
        adaptive.run_seconds(1_200);
        fixed.run_seconds(1_200);
        let tx_adaptive: u64 = adaptive
            .bt_device_reports()
            .iter()
            .map(|r| r.transmissions)
            .sum();
        let tx_fixed: u64 = fixed
            .bt_device_reports()
            .iter()
            .map(|r| r.transmissions)
            .sum();
        // The 20-minute window is dominated by the pull-down transient,
        // during which BT-ADPT legitimately transmits fast; the long-run
        // ratio (Fig. 15) is far lower and asserted by the fig15 harness.
        // The margin is loose enough to hold under every noise kernel
        // (V1 lands near 0.68, V2 near 0.72).
        assert!(
            (tx_adaptive as f64) < tx_fixed as f64 * 0.75,
            "adaptive {tx_adaptive} vs fixed {tx_fixed}"
        );
    }

    #[test]
    fn restore_rejects_queued_events_past_the_stream_tables() {
        for event in [SystemEvent::BtSample(9999), SystemEvent::AcFire(9999)] {
            let mut source = quick_system();
            source.run_seconds(1);
            source
                .events
                .schedule(source.now() + SimDuration::from_secs(1), event);
            let mut w = bz_state::Writer::new();
            source.save_state(&mut w);
            let mut restored = quick_system();
            let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
            if loaded.is_ok() {
                // The next step indexes the stream tables with the event.
                restored.run_seconds(2);
            }
            let err = loaded.unwrap_err().to_string();
            assert!(err.contains("past this configuration"), "{err}");
        }
    }

    #[test]
    fn restore_rejects_a_clock_past_the_event_queue() {
        let mut source = quick_system();
        source.run_seconds(5);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        quick_system()
            .load_state(&mut bz_state::Reader::new(w.as_bytes()))
            .expect("an unmodified save loads");
        source.now += SimDuration::from_secs(2 * 3600);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let err = quick_system()
            .load_state(&mut bz_state::Reader::new(w.as_bytes()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("past the earliest queued event"), "{err}");
    }

    #[test]
    fn decision_log_records_when_enabled() {
        let config = SystemConfig {
            record_decisions: true,
            ..SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab())
        };
        let mut system = BubbleZeroSystem::new(config);
        system.run_seconds(60);
        assert!(!system.decision_log().is_empty());
        let record = system.decision_log()[0];
        assert!(record.variance >= 0.0);
        assert!(record.stream < system.bt_stream_count());
    }

    #[test]
    fn sniffer_captures_when_enabled() {
        let config = SystemConfig {
            enable_sniffer: true,
            ..SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab())
        };
        let mut system = BubbleZeroSystem::new(config);
        system.run_seconds(60);
        let sniffer = system.sniffer().expect("enabled");
        assert_eq!(sniffer.len() as u64, system.network().stats().delivered);
        assert!(sniffer.traffic_by_type().len() >= 3);
        // Disabled by default.
        let without = BubbleZeroSystem::new(SystemConfig::paper_deployment(
            PlantConfig::bubble_zero_lab(),
        ));
        assert!(without.sniffer().is_none());
    }

    fn seeded(seed: u64, obs: &bz_obs::Handle) -> BubbleZeroSystem {
        let config = SystemConfig {
            seed,
            ..SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab().with_seed(seed))
        };
        BubbleZeroSystem::with_obs(config, obs.clone())
    }

    fn export(obs: &bz_obs::Handle) -> Vec<u8> {
        let mut bytes = Vec::new();
        obs.write_jsonl(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn run_seconds_exports_what_single_steps_export() {
        // One call per minute and one per second must publish the same
        // counters.
        let (by_minute, by_second) = (bz_obs::Handle::isolated(), bz_obs::Handle::isolated());
        let mut a = seeded(3, &by_minute);
        let mut b = seeded(3, &by_second);
        // Construction schedules one event per stream and publishes them.
        let streams = (a.bt_stream_count() + a.ac_streams.len()) as u64;
        assert_eq!(
            by_minute.snapshot().counters["simcore.event_queue.scheduled"],
            streams
        );
        for _ in 0..2 {
            a.run_seconds(60);
            by_minute.record_counters(a.now().as_millis());
            for _ in 0..60 {
                b.step_second();
            }
            by_second.record_counters(b.now().as_millis());
        }
        assert!(by_minute.snapshot().counters["wsn.packets.sent"] > 0);
        assert_eq!(export(&by_minute), export(&by_second));
    }

    #[test]
    fn systems_sharing_a_handle_sum_their_counts() {
        // The figure harnesses run several systems on the global handle.
        let shared = bz_obs::Handle::isolated();
        let mut systems = [seeded(1, &shared), seeded(2, &shared)];
        for _ in 0..2 {
            for system in &mut systems {
                system.run_seconds(60);
            }
        }
        let counters = shared.snapshot().counters;
        let total = |key: &str| counters.get(key).copied().unwrap_or(0);
        type Count<T> = fn(&T) -> u64;
        let queue: [(&str, Count<EventQueue<SystemEvent>>); 2] = [
            ("simcore.event_queue.scheduled", EventQueue::scheduled),
            ("simcore.event_queue.popped", EventQueue::popped),
        ];
        for (key, count) in queue {
            let owned: u64 = systems.iter().map(|s| count(&s.events)).sum();
            assert_eq!(total(key), owned, "{key}");
        }
        let channel: [(&str, Count<ChannelStats>); 6] = [
            ("wsn.packets.sent", |c| c.offered),
            ("wsn.packets.delivered", |c| c.delivered),
            ("wsn.packets.collided", |c| c.collided),
            ("wsn.packets.dropped_busy", |c| c.busy_drops),
            ("wsn.packets.dropped_fading", |c| c.faded),
            ("wsn.backoffs", |c| c.backoffs),
        ];
        for (key, count) in channel {
            let owned: u64 = systems.iter().map(|s| count(s.network().stats())).sum();
            assert_eq!(total(key), owned, "{key}");
        }
        for report in systems[0].bt_device_reports() {
            let key = format!("wsn.node.{}.sent", report.node.get());
            let owned: u64 = systems
                .iter()
                .flat_map(BubbleZeroSystem::bt_device_reports)
                .filter(|r| r.node == report.node)
                .map(|r| r.transmissions)
                .sum();
            assert_eq!(total(&key), owned, "{key}");
        }

        // Every counter, `supervisor.accepted` included, is the sum of
        // what each system publishes on a handle of its own.
        let alone = [1, 2].map(|seed| {
            let obs = bz_obs::Handle::isolated();
            seeded(seed, &obs).run_seconds(120);
            obs.snapshot().counters
        });
        assert!(counters["supervisor.accepted"] > 0);
        for (key, value) in &counters {
            let parts: u64 = alone.iter().filter_map(|c| c.get(key)).sum();
            assert_eq!(*value, parts, "{key}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let config = SystemConfig::paper_deployment(
            PlantConfig::bubble_zero_lab()
                .with_disturbances(DisturbanceSchedule::figure10_afternoon()),
        );
        let mut a = BubbleZeroSystem::new(config.clone());
        let mut b = BubbleZeroSystem::new(config);
        a.run_seconds(300);
        b.run_seconds(300);
        for id in SubspaceId::ALL {
            assert_eq!(a.plant().zone_state(id), b.plant().zone_state(id));
        }
        assert_eq!(a.network().stats(), b.network().stats());
    }
}
