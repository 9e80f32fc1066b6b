package trace

import "fmt"

// Category is a Google-Play-style application category. §3.6 of the paper
// groups "popular applications into 26 categories in Google Play" and names
// the major ones; the remainder are filled with the standard Play taxonomy
// of the era so the schema carries the full 26.
type Category uint8

// Application categories. The first block lists the categories the paper
// names explicitly; CatBrowser covers web use including video/social reached
// through the browser, as the paper notes.
const (
	CatBrowser Category = iota
	CatSocial
	CatVideo
	CatCommunication
	CatNews
	CatGame
	CatMusic
	CatTravel
	CatShopping
	CatDownloads
	CatEntertainment
	CatTools
	CatProductivity
	CatLifestyle
	CatHealth
	CatBusiness
	CatSystem // OS services and software updates
	CatBooks
	CatEducation
	CatFinance
	CatPhoto
	CatWeather
	CatMaps
	CatSports
	CatPersonalization
	CatMedical
	NumCategories
)

var categoryNames = [NumCategories]string{
	CatBrowser:         "browser",
	CatSocial:          "social",
	CatVideo:           "video",
	CatCommunication:   "communication",
	CatNews:            "news",
	CatGame:            "game",
	CatMusic:           "music",
	CatTravel:          "travel",
	CatShopping:        "shopping",
	CatDownloads:       "downloads",
	CatEntertainment:   "entertainment",
	CatTools:           "tools",
	CatProductivity:    "productivity",
	CatLifestyle:       "lifestyle",
	CatHealth:          "health",
	CatBusiness:        "business",
	CatSystem:          "system",
	CatBooks:           "books",
	CatEducation:       "education",
	CatFinance:         "finance",
	CatPhoto:           "photo",
	CatWeather:         "weather",
	CatMaps:            "maps",
	CatSports:          "sports",
	CatPersonalization: "personalization",
	CatMedical:         "medical",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Valid reports whether c is a known category.
func (c Category) Valid() bool { return c < NumCategories }

// CategoryByName resolves a category name as produced by Category.String.
func CategoryByName(name string) (Category, bool) {
	for c := Category(0); c < NumCategories; c++ {
		if categoryNames[c] == name {
			return c, true
		}
	}
	return 0, false
}
