"""Qibla navigation toolkit: great-circle geodesy plus a tilt-compensated
compass pipeline verified against a deterministic sensor simulator.

Every public name is looked up on first use (PEP 562), so `import qiblanav`
loads no submodule and only `calibrate` and the simulator load numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "AzimuthDeg": "geodesy",
    "CalibrationState": "pipeline",
    "CityRecord": "dataio",
    "DEFAULT_ALPHA": "pipeline",
    "DEFAULT_GUIDANCE_THRESHOLD_DEG": "pipeline",
    "DeclinationDeg": "declination",
    "DeclinationGrid": "declination",
    "DistanceKm": "geodesy",
    "EARTH_RADIUS_KM": "geodesy",
    "FilterState": "pipeline",
    "G": "records",
    "GeoCoordinate": "geodesy",
    "Guidance": "pipeline",
    "KAABA": "geodesy",
    "MagneticField": "simulator",
    "QiblaPointerState": "pipeline",
    "Scenario": "simulator",
    "SensorSample": "records",
    "TraceFile": "records",
    "TruthRecord": "records",
    "angular_separation": "geodesy",
    "calibrate": "pipeline",
    "circular_diff": "geodesy",
    "declination_at": "declination",
    "filter_heading": "pipeline",
    "generate": "simulator",
    "guidance": "pipeline",
    "haversine_distance": "geodesy",
    "initial_bearing": "geodesy",
    "load_cities": "dataio",
    "load_grid": "declination",
    "load_scenario": "simulator",
    "parse_grid": "declination",
    "parse_scenario": "simulator",
    "process": "pipeline",
    "qibla_azimuth": "geodesy",
    "read_report": "dataio",
    "read_trace": "dataio",
    "run_trace": "pipeline",
    "simulate": "simulator",
    "slc_distance": "geodesy",
    "summarize": "dataio",
    "tilt_compensated_heading": "pipeline",
    "to_true_heading": "declination",
    "truth_heading_at": "dataio",
    "write_report": "dataio",
    "write_trace": "dataio",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
