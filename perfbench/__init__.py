"""Whole-session tuning benchmark (see run.py)."""
