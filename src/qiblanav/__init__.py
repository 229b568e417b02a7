"""Qibla navigation toolkit: great-circle geodesy plus a tilt-compensated
compass pipeline verified against a deterministic sensor simulator.

Every public name is looked up on first use (PEP 562), so `import qiblanav`
loads no submodule, and a name loads only the module `_MODULE_OF` names for
it: `geodesy` holds the coordinates, bearings and distances; `declination`
the grid and the magnetic-to-true conversion; `columns` the records of a
trace and of the pointer (`SensorSample`, `TruthRecord`, `TraceFile`,
`QiblaPointerState`, `Guidance`) and `G`; `records` the city file
(`CityRecord`, `load_cities`); `pipeline` the calibration, the filter and
the pointer; `dataio` the trace and report files; and `simulator` the
scenarios and the simulated traces. numpy loads only with the names of
`simulator` (`simulate`, `generate`, the scenario types and readers); every
other name, the trace and report functions, `calibrate`, `run_trace` and
the one-sample pipeline's `process` among them, works without it.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "AzimuthDeg": "geodesy",
    "CalibrationState": "pipeline",
    "CityRecord": "records",
    "DeclinationDeg": "declination",
    "DeclinationGrid": "declination",
    "DistanceKm": "geodesy",
    "EARTH_RADIUS_KM": "geodesy",
    "FilterState": "pipeline",
    "G": "columns",
    "GeoCoordinate": "geodesy",
    "Guidance": "columns",
    "KAABA": "geodesy",
    "MagneticField": "simulator",
    "PointerSettings": "pipeline",
    "QiblaPointerState": "columns",
    "Scenario": "simulator",
    "SensorSample": "columns",
    "TraceFile": "columns",
    "TruthRecord": "columns",
    "angular_separation": "geodesy",
    "calibrate": "pipeline",
    "circular_diff": "geodesy",
    "declination_at": "declination",
    "filter_heading": "pipeline",
    "generate": "simulator",
    "guidance": "pipeline",
    "haversine_distance": "geodesy",
    "initial_bearing": "geodesy",
    "load_cities": "records",
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
