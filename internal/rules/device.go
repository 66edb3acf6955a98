package rules

import "sync"

// Device describes one kind of smart-home device: what it senses, what it
// can be commanded to do, and the environmental side effects of each
// command. The catalog below is the generative device model behind the
// synthetic platform corpora.
type Device struct {
	Name     string   // canonical name used in rule sentences
	Aliases  []string // alternative surface forms
	Security bool     // security-sensitive (locks, doors, cameras, alarms)

	// Sensing: a sensor observes SenseChannel and reports SenseStates.
	SenseChannel Channel
	SenseStates  []string

	// Actuation: an actuator accepts commands; each command sets the
	// device's own state channel and optionally perturbs the environment.
	Commands []Command
}

// Command is one actuation a device supports.
type Command struct {
	Verb      string     // natural language verb phrase, e.g. "turn on"
	State     string     // resulting device state, e.g. "on"
	Channel   Channel    // the device-state channel the command writes
	Env       []EnvDelta // environmental side effects
	Sensitive bool       // security-sensitive action (unlock, disarm, open)
}

// IsSensor reports whether the device can appear in trigger conditions via
// its own sensing channel.
func (d *Device) IsSensor() bool { return d.SenseChannel != ChanNone }

// IsActuator reports whether the device accepts commands.
func (d *Device) IsActuator() bool { return len(d.Commands) > 0 }

// Catalog returns the smart-home device catalog. The slice is freshly
// allocated; callers may reorder it.
func Catalog() []Device {
	return []Device{
		// --- Sensors ---------------------------------------------------
		{Name: "motion sensor", SenseChannel: ChanMotion,
			SenseStates: []string{"detected", "clear"}},
		{Name: "smoke detector", Aliases: []string{"smoke alarm"},
			SenseChannel: ChanSmoke, SenseStates: []string{"detected", "clear"}},
		{Name: "co detector", Aliases: []string{"carbon monoxide detector"},
			SenseChannel: ChanCO, SenseStates: []string{"detected", "clear"}},
		{Name: "temperature sensor", Aliases: []string{"thermometer"},
			SenseChannel: ChanTemperature, SenseStates: []string{"high", "low"}},
		{Name: "humidity sensor", SenseChannel: ChanHumidity,
			SenseStates: []string{"high", "low"}},
		{Name: "illuminance sensor", Aliases: []string{"light sensor"},
			SenseChannel: ChanIlluminance, SenseStates: []string{"bright", "dark"}},
		{Name: "presence sensor", SenseChannel: ChanPresence,
			SenseStates: []string{"home", "away"}},
		{Name: "contact sensor", SenseChannel: ChanContact,
			SenseStates: []string{"open", "closed"}},
		{Name: "leak sensor", Aliases: []string{"water leak sensor", "moisture sensor"},
			SenseChannel: ChanLeak, SenseStates: []string{"wet", "dry"}},
		{Name: "sound sensor", Aliases: []string{"noise sensor"},
			SenseChannel: ChanSound, SenseStates: []string{"loud", "quiet"}},
		{Name: "button", SenseChannel: ChanButton,
			SenseStates: []string{"pressed"}},
		{Name: "doorbell", Security: true, SenseChannel: ChanButton,
			SenseStates: []string{"pressed"},
			Commands: []Command{
				{Verb: "ring", State: "pressed", Channel: ChanButton,
					Env: []EnvDelta{{ChanSound, 1}}},
			}},

		// --- Actuators ---------------------------------------------------
		{Name: "light", Aliases: []string{"lamp", "bulb"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanIlluminance, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower,
					Env: []EnvDelta{{ChanIlluminance, -1}}},
				{Verb: "dim", State: "dim", Channel: ChanPower,
					Env: []EnvDelta{{ChanIlluminance, -1}}},
			}},
		{Name: "switch", Aliases: []string{"smart switch"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower},
				{Verb: "turn off", State: "off", Channel: ChanPower},
			}},
		{Name: "plug", Aliases: []string{"outlet", "smart plug"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanEnergy, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower,
					Env: []EnvDelta{{ChanEnergy, -1}}},
			}},
		{Name: "heater", Aliases: []string{"furnace", "radiator"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanTemperature, 1}, {ChanEnergy, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower,
					Env: []EnvDelta{{ChanTemperature, -1}}},
			}},
		{Name: "air conditioner", Aliases: []string{"ac"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanTemperature, -1}, {ChanHumidity, -1}, {ChanEnergy, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower,
					Env: []EnvDelta{{ChanTemperature, 1}}},
			}},
		{Name: "thermostat",
			Commands: []Command{
				{Verb: "raise", State: "high", Channel: ChanTemperature,
					Env: []EnvDelta{{ChanTemperature, 1}, {ChanEnergy, 1}}},
				{Verb: "lower", State: "low", Channel: ChanTemperature,
					Env: []EnvDelta{{ChanTemperature, -1}}},
			}},
		{Name: "fan", Aliases: []string{"ventilation fan", "exhaust fan"},
			Commands: []Command{
				{Verb: "start", State: "running", Channel: ChanPower,
					Env: []EnvDelta{{ChanTemperature, -1}, {ChanHumidity, -1}, {ChanSmoke, -1}, {ChanSound, 1}}},
				{Verb: "stop", State: "stopped", Channel: ChanPower},
			}},
		{Name: "humidifier",
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanHumidity, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower,
					Env: []EnvDelta{{ChanHumidity, -1}}},
			}},
		{Name: "dehumidifier",
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanHumidity, -1}, {ChanEnergy, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower},
			}},
		{Name: "window", Security: true,
			SenseChannel: ChanContact, SenseStates: []string{"open", "closed"},
			Commands: []Command{
				{Verb: "open", State: "open", Channel: ChanContact,
					Env: []EnvDelta{{ChanTemperature, -1}, {ChanHumidity, 1}, {ChanSound, 1}}},
				{Verb: "close", State: "closed", Channel: ChanContact,
					Env: []EnvDelta{{ChanTemperature, 1}}},
			}},
		{Name: "door", Security: true,
			SenseChannel: ChanContact, SenseStates: []string{"open", "closed"},
			Commands: []Command{
				{Verb: "open", State: "open", Channel: ChanContact,
					Env: []EnvDelta{{ChanMotion, 1}}},
				{Verb: "close", State: "closed", Channel: ChanContact},
			}},
		{Name: "garage door", Security: true,
			SenseChannel: ChanContact, SenseStates: []string{"open", "closed"},
			Commands: []Command{
				{Verb: "open", State: "open", Channel: ChanContact, Sensitive: true},
				{Verb: "close", State: "closed", Channel: ChanContact},
			}},
		{Name: "lock", Aliases: []string{"door lock", "smart lock"}, Security: true,
			SenseChannel: ChanLockState, SenseStates: []string{"locked", "unlocked"},
			Commands: []Command{
				{Verb: "lock", State: "locked", Channel: ChanLockState},
				{Verb: "unlock", State: "unlocked", Channel: ChanLockState, Sensitive: true},
			}},
		{Name: "blind", Aliases: []string{"curtain", "shade"},
			Commands: []Command{
				{Verb: "open", State: "open", Channel: ChanContact,
					Env: []EnvDelta{{ChanIlluminance, 1}}},
				{Verb: "close", State: "closed", Channel: ChanContact,
					Env: []EnvDelta{{ChanIlluminance, -1}}},
			}},
		{Name: "water valve", Aliases: []string{"valve"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanWaterFlow,
					Env: []EnvDelta{{ChanLeak, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanWaterFlow,
					Env: []EnvDelta{{ChanLeak, -1}}},
			}},
		{Name: "sprinkler", Aliases: []string{"irrigation system"},
			Commands: []Command{
				{Verb: "start", State: "running", Channel: ChanWaterFlow,
					Env: []EnvDelta{{ChanLeak, 1}, {ChanHumidity, 1}}},
				{Verb: "stop", State: "stopped", Channel: ChanWaterFlow},
			}},
		{Name: "camera", Security: true,
			SenseChannel: ChanMotion, SenseStates: []string{"detected", "clear"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower},
				{Verb: "turn off", State: "off", Channel: ChanPower, Sensitive: true},
				{Verb: "record", State: "recording", Channel: ChanRecord,
					Env: []EnvDelta{{ChanRecord, 1}}},
			}},
		{Name: "alarm", Aliases: []string{"siren"}, Security: true,
			Commands: []Command{
				{Verb: "arm", State: "armed", Channel: ChanPower},
				{Verb: "disarm", State: "disarmed", Channel: ChanPower, Sensitive: true},
				{Verb: "sound", State: "on", Channel: ChanSound,
					Env: []EnvDelta{{ChanSound, 1}}},
			}},
		{Name: "speaker", Aliases: []string{"smart speaker"},
			Commands: []Command{
				{Verb: "play music on", State: "on", Channel: ChanSound,
					Env: []EnvDelta{{ChanSound, 1}}},
				{Verb: "mute", State: "off", Channel: ChanSound,
					Env: []EnvDelta{{ChanSound, -1}}},
			}},
		{Name: "tv", Aliases: []string{"television"},
			Commands: []Command{
				{Verb: "turn on", State: "on", Channel: ChanPower,
					Env: []EnvDelta{{ChanSound, 1}, {ChanIlluminance, 1}}},
				{Verb: "turn off", State: "off", Channel: ChanPower},
			}},
		{Name: "vacuum", Aliases: []string{"robot vacuum"},
			Commands: []Command{
				{Verb: "start", State: "running", Channel: ChanPower,
					Env: []EnvDelta{{ChanSound, 1}, {ChanMotion, 1}}},
				{Verb: "stop", State: "stopped", Channel: ChanPower},
			}},
		{Name: "coffee maker",
			Commands: []Command{
				{Verb: "start", State: "running", Channel: ChanPower,
					Env: []EnvDelta{{ChanEnergy, 1}}},
				{Verb: "stop", State: "stopped", Channel: ChanPower},
			}},
		{Name: "washer", Aliases: []string{"washing machine"},
			Commands: []Command{
				{Verb: "start", State: "running", Channel: ChanPower,
					Env: []EnvDelta{{ChanSound, 1}, {ChanEnergy, 1}}},
				{Verb: "stop", State: "stopped", Channel: ChanPower},
			}},

		// --- Notification/logging sinks ---------------------------------
		// A large share of real applets end in a notification, a log row or
		// an email rather than a physical command; these actions have no
		// opposing state, so they never conflict or block.
		{Name: "phone",
			Commands: []Command{
				{Verb: "send a notification to", State: "notified", Channel: ChanNotify},
				{Verb: "send a text message to", State: "messaged", Channel: ChanNotify},
			}},
		{Name: "spreadsheet",
			Commands: []Command{
				{Verb: "add a row to", State: "updated", Channel: ChanRecord},
			}},
		{Name: "email",
			Commands: []Command{
				{Verb: "send", State: "sent", Channel: ChanNotify},
			}},
		{Name: "calendar",
			Commands: []Command{
				{Verb: "add an event to", State: "updated", Channel: ChanRecord},
			}},
		{Name: "weather station", SenseChannel: ChanWeather,
			SenseStates: []string{"raining", "sunny", "windy", "snowing"}},
	}
}

// catalogByName is built on first use from one private copy of the catalog.
var catalogByName = sync.OnceValue(func() map[string]*Device {
	cat := Catalog()
	out := make(map[string]*Device, len(cat))
	for i := range cat {
		out[cat[i].Name] = &cat[i]
	}
	return out
})

// CatalogByName indexes the catalog by canonical device name. Every call
// returns the same map over the same devices: it is read-only, and callers
// that want to reorder or edit devices take Catalog's fresh slice instead.
func CatalogByName() map[string]*Device { return catalogByName() }
