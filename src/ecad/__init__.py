"""Evolutionary co-design search for MLP architectures and systolic-array hardware."""
