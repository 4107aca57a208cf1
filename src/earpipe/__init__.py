"""Around-the-ear EEG/ECG processing toolkit."""

__version__ = "0.1.0"
