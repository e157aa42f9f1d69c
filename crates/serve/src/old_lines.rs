//! Literal wire lines written by earlier builds, for decode-compatibility
//! tests.

/// A 2x2, single-corner, seed-9 paper-default spec line as builds with
/// the device bypass wrote it (submit requests, checkpoints, shard
/// requests). Its old fingerprint is [`SPEC_WITH_BYPASS_FINGERPRINT`].
pub(crate) const SPEC_WITH_BYPASS: &str = concat!(
    "{\"schema\":\"icvbe-campaign-spec-v1\",\"wafer\":{\"rows\":2,\"cols\":2,",
    "\"circular\":false},\"variation\":{\"is_sigma\":0.08,\"bias_mismatch_sigma\":0.004,",
    "\"readout_offset_mean\":0,\"readout_offset_sigma\":0.00003,\"opamp_offset_sigma\":0.002,",
    "\"leak_scale_mean\":1.5,\"leak_scale_sigma\":0.35,\"rth_sigma\":0.15},",
    "\"corners\":[{\"name\":\"low\",\"ic\":0.0000005}],\"plan\":{\"cold\":-25,",
    "\"reference\":25,\"hot\":75},\"window\":{\"eg_min\":1.05,\"eg_max\":1.25,",
    "\"xti_min\":0,\"xti_max\":6},\"seed\":\"9\",\"bench\":\"paper\",\"warm_start\":true,",
    "\"bypass\":true,\"sparse\":true,\"faults\":{\"noise_probability\":0,",
    "\"noise_sigma_volts\":0,\"stuck_probability\":0,\"drop_probability\":0,",
    "\"drift_sigma_volts\":0,\"nan_probability\":0},\"retry_budget\":3,",
    "\"robust\":true}",
);

/// The fingerprint those builds stamped on [`SPEC_WITH_BYPASS`].
pub(crate) const SPEC_WITH_BYPASS_FINGERPRINT: u64 = 0x9956_5966_530c_254a;
