"""Local tangent-plane projection for small survey areas.

Equirectangular approximation around an anchor point: good to centimeters
over the few-kilometer extent of a flight, and exactly invertible, which is
what the voxel grids and exports need.
"""

from __future__ import annotations

import math

EARTH_RADIUS_M = 6371000.0


def tangent_forward(anchor_lat_deg: float, anchor_lon_deg: float,
                    lat_deg: float, lon_deg: float) -> tuple[float, float]:
    """Project lat/lon to meters (east, north) of the anchor."""
    scale = math.cos(math.radians(anchor_lat_deg))
    x = math.radians(lon_deg - anchor_lon_deg) * EARTH_RADIUS_M * scale
    y = math.radians(lat_deg - anchor_lat_deg) * EARTH_RADIUS_M
    return x, y


def tangent_inverse(anchor_lat_deg: float, anchor_lon_deg: float,
                    x_east_m: float, y_north_m: float) -> tuple[float, float]:
    """Inverse of tangent_forward: meters east/north back to (lat, lon)."""
    scale = math.cos(math.radians(anchor_lat_deg))
    lat = anchor_lat_deg + math.degrees(y_north_m / EARTH_RADIUS_M)
    lon = anchor_lon_deg + math.degrees(x_east_m / (EARTH_RADIUS_M * scale))
    return lat, lon


__all__ = ["EARTH_RADIUS_M", "tangent_forward", "tangent_inverse"]
